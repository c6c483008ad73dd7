(* Mutation engines (ISSUE 9): typed splice/generate candidates are
   verifier-clean, the havoc engine replays the bare mutator's draw
   sequence, weight parsing/overrides, the degenerate-spec fallback, and
   the typed engine's determinism contract (NYX_DOMAINS identity,
   kill+resume). *)

open Nyx_core
module Rng = Nyx_sim.Rng
module Program = Nyx_spec.Program
module Mutator = Nyx_spec.Mutator
module ME = Nyx_spec.Mutation_engine
module TM = Nyx_analysis.Typed_mutators

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let echo_entry () = Option.get (Nyx_targets.Registry.find "echo")
let ftp_entry () = Option.get (Nyx_targets.Registry.find "lightftp")

(* domain-safe: test-only lazy fixtures, forced on a single domain *)
let net_spec = lazy (Campaign.net_spec ())
let spec () = (Lazy.force net_spec).Nyx_spec.Net_spec.spec

(* domain-safe: test-only lazy fixture, forced on a single domain *)
let seeds = lazy (Campaign.make_seeds (ftp_entry ()) (Lazy.force net_spec))

(* ------------------------------------------------------------------ *)
(* Typed mutators: every candidate is verifier-clean and valid         *)

let invalid_arg f = match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* A pseudo-random but deterministic corpus program: a seed pushed
   through a few rounds of the byte mutator. *)
let scramble rng rounds p =
  let corpus = Array.of_list (Lazy.force seeds) in
  let q = ref p in
  for _ = 1 to rounds do
    q := Mutator.mutate rng ~max_ops:24 ~corpus !q
  done;
  !q

let prefix_preserved ~frozen (p : Program.t) (q : Program.t) =
  let n = min frozen (min (Array.length p.Program.ops) (Array.length q.Program.ops)) in
  Array.sub p.Program.ops 0 n = Array.sub q.Program.ops 0 n

(* Judged by the verifier's diagnostics, not by [Verifier.is_clean]: the
   mutators call that check themselves, so it cannot grade them. *)
let clean_candidate ~frozen p = function
  | None -> true (* "no candidate from this angle" is always acceptable *)
  | Some q ->
    Nyx_analysis.Verifier.errors q = []
    && Result.is_ok (Program.validate q)
    && prefix_preserved ~frozen p q

(* domain-safe: test-only lazy mutator fixture, forced on a single domain *)
let prop_typed_candidates_clean =
  (* The engine's central promise: generate-verify-execute means only
     verifier-clean programs ever leave splice/generate, whatever the
     input, corpus, frozen prefix or RNG state. *)
  let gen_mut = lazy (TM.generate_mutator (spec ())) in
  QCheck.Test.make ~name:"splice/generate candidates verifier-clean"
    ~count:120
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 6) (int_range 0 4))
    (fun (seed, rounds, frozen) ->
      let base = List.nth (Lazy.force seeds) (seed mod List.length (Lazy.force seeds)) in
      let rng = Rng.create seed in
      let p = scramble rng rounds base in
      let frozen = min frozen (Array.length p.Program.ops) in
      let ctx =
        {
          ME.mx_frozen = frozen;
          mx_max_ops = 24;
          mx_dict = [ Bytes.of_string "USER"; Bytes.of_string "ls" ];
          mx_corpus = Array.of_list (Lazy.force seeds);
        }
      in
      clean_candidate ~frozen p (TM.splice_mutator.ME.m_fn rng ctx p)
      && clean_candidate ~frozen p ((Lazy.force gen_mut).ME.m_fn rng ctx p))

(* ------------------------------------------------------------------ *)
(* The havoc engine replays the bare mutator's draw sequence           *)

let test_havoc_engine_is_bare_mutator () =
  let ctx =
    {
      ME.mx_frozen = 1;
      mx_max_ops = 20;
      mx_dict = [ Bytes.of_string "tok" ];
      mx_corpus = Array.of_list (Lazy.force seeds);
    }
  in
  let p = List.hd (Lazy.force seeds) in
  let engine = ME.havoc () in
  for seed = 1 to 20 do
    let a = ME.mutate engine (Rng.create seed) ctx p in
    let b =
      Mutator.mutate (Rng.create seed) ~frozen:ctx.ME.mx_frozen
        ~max_ops:ctx.ME.mx_max_ops ~dict:ctx.ME.mx_dict
        ~corpus:ctx.ME.mx_corpus p
    in
    check_bool "no selection draw: engine == bare Mutator.mutate" true (a = b)
  done

(* ------------------------------------------------------------------ *)
(* Credit bookkeeping                                                  *)

let test_credit_ewma () =
  let ctx =
    { ME.mx_frozen = 0; mx_max_ops = 24; mx_dict = []; mx_corpus = [||] }
  in
  let p = List.hd (Lazy.force seeds) in
  let engine = ME.havoc () in
  ignore (ME.mutate engine (Rng.create 1) ctx p);
  ME.credit engine ~novel:true;
  (match ME.stats engine with
  | [ s ] ->
    check_string "name" "havoc" s.ME.s_name;
    check_int "attempts" 1 s.ME.s_attempts;
    check_int "accepts" 1 s.ME.s_accepts;
    (* EWMA from 0 with alpha 0.05: 0.95*0 + 0.05*1 *)
    check_bool "credit folded" true (Float.abs (s.ME.s_credit -. 0.05) < 1e-9)
  | l -> Alcotest.failf "expected one mutator, got %d" (List.length l));
  ME.credit engine ~novel:false;
  (match ME.stats engine with
  | [ s ] ->
    check_int "accepts unchanged on stale" 1 s.ME.s_accepts;
    check_bool "credit decays" true (s.ME.s_credit < 0.05)
  | _ -> Alcotest.fail "mutator vanished")

let test_state_roundtrip_and_mismatch () =
  let engine = Engines.create Engines.Typed (spec ()) in
  let st = ME.save engine in
  ME.load engine st;
  check_bool "restore of own state is a no-op" true (ME.save engine = st);
  let foreign = ME.havoc () in
  check_bool "foreign state rejected" true
    (invalid_arg (fun () -> ME.load foreign st))

let test_create_rejects_bad_weights () =
  check_bool "empty mutator list" true
    (invalid_arg (fun () -> ME.create ~name:"x" []));
  check_bool "unknown weight name" true
    (invalid_arg (fun () ->
         ME.create ~name:"x" ~weights:[ ("nope", 1.0) ] [ ME.havoc_mutator ]));
  check_bool "non-positive weight" true
    (invalid_arg (fun () ->
         ME.create ~name:"x" ~weights:[ ("havoc", 0.0) ] [ ME.havoc_mutator ]));
  check_bool "duplicate weight name" true
    (invalid_arg (fun () ->
         ME.create ~name:"x"
           ~weights:[ ("havoc", 1.0); ("havoc", 2.0) ]
           [ ME.havoc_mutator ]))

(* ------------------------------------------------------------------ *)
(* Engine registry: names and weight parsing                           *)

let test_engine_names () =
  check_bool "havoc" true (Engines.of_name "havoc" = Ok Engines.Havoc);
  check_bool "typed" true (Engines.of_name "typed" = Ok Engines.Typed);
  check_bool "unknown engine" true
    (Result.is_error (Engines.of_name "radamsa"));
  List.iter
    (fun k -> check_bool "name roundtrip" true (Engines.of_name (Engines.name k) = Ok k))
    Engines.all

let test_parse_weights () =
  (match Engines.parse_weights "splice:2.5,generate:0.5" with
  | Ok ws ->
    check_bool "parsed" true
      (ws = [ ("splice", 2.5); ("generate", 0.5) ]);
    check_string "canonical inverse" "splice:2.5,generate:0.5"
      (Engines.weights_to_string ws)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  check_bool "bad format" true (Result.is_error (Engines.parse_weights "splice"));
  check_bool "non-numeric" true
    (Result.is_error (Engines.parse_weights "splice:lots"));
  check_bool "non-positive" true
    (Result.is_error (Engines.parse_weights "splice:0"));
  check_bool "unknown weight name at create" true
    (invalid_arg (fun () ->
         Engines.create ~weights:[ ("nope", 1.0) ] Engines.Typed (spec ())))

(* ------------------------------------------------------------------ *)
(* Degenerate specs: the generator stands down, havoc carries           *)

let mono_spec () =
  (* One constructible non-snapshot opcode — Spec_lint flags this
     dynamic-degenerate, and the generator must not arm. *)
  let b = Nyx_spec.Spec.start "mono" in
  let d = Nyx_spec.Spec.data_type b ~max_len:8 "payload" in
  let _send = Nyx_spec.Spec.node_type b ~data:[ d ] "send" in
  Nyx_spec.Spec.finalize b

let test_degenerate_spec_falls_back () =
  let s = mono_spec () in
  check_bool "shipped net spec is generative" true (TM.generative (spec ()));
  check_bool "mono spec is not" false (TM.generative s);
  check_bool "generate_mutator refuses" true
    (invalid_arg (fun () -> TM.generate_mutator s));
  check_int "typed list drops generate" 2 (List.length (TM.mutators s));
  let engine = Engines.create Engines.Typed s in
  check_bool "engine mutators" true
    (ME.mutator_names engine = [ "havoc"; "splice" ]);
  (* The degraded engine still mutates: havoc is total at index 0. *)
  let p = List.hd (Lazy.force seeds) in
  let ctx =
    { ME.mx_frozen = 0; mx_max_ops = 24; mx_dict = []; mx_corpus = [||] }
  in
  let q = ME.mutate engine (Rng.create 3) ctx p in
  check_bool "candidate valid" true (Result.is_ok (Program.validate q))

(* ------------------------------------------------------------------ *)
(* Typed engine end-to-end determinism: NYX_DOMAINS identity            *)

let typed_cfg ?(seed = 5) ?(budget_ns = 1_200_000_000) ?(max_execs = 3_000) () =
  {
    Campaign.default_config with
    Campaign.budget_ns;
    max_execs;
    policy = Policy.Balanced;
    seed;
    engine = Engines.Typed;
  }

(* The deterministic projection of a fleet outcome (mirrors
   test_fleet_sync): everything except wall clock and the
   worker-count-dependent fields. *)
let core (o : Fleet.outcome) =
  ( ( o.Fleet.instances,
      o.Fleet.first_solve_ns,
      o.Fleet.solves,
      o.Fleet.total_execs,
      o.Fleet.quarantined ),
    (o.Fleet.union_edges, o.Fleet.sync_epochs, o.Fleet.work_ns) )

let same_outcome a b =
  core a = core b
  && List.length a.Fleet.results = List.length b.Fleet.results
  && List.for_all2 Report.same_deterministic a.Fleet.results b.Fleet.results

let test_typed_fleet_domains_deterministic () =
  let entry = echo_entry () in
  let config = typed_cfg () in
  let seq =
    Fleet.run ~instances:3 ~domains:1 ~sync_ns:200_000_000 ~config entry
  in
  let par =
    Fleet.run ~instances:3 ~domains:4 ~sync_ns:200_000_000 ~config entry
  in
  check_bool "typed engine: 4 domains == 1 domain" true (same_outcome seq par);
  List.iter
    (fun r ->
      match r.Report.mutation with
      | Some m -> check_string "typed engine reported" "typed" m.Report.engine
      | None -> Alcotest.fail "campaign result carries no mutation stats")
    seq.Fleet.results

(* ------------------------------------------------------------------ *)
(* Typed engine kill+resume == uninterrupted                           *)

exception Killed

let ck_config =
  {
    Campaign.default_config with
    Campaign.budget_ns = 1_500_000_000;
    max_execs = 2_000;
    policy = Policy.Aggressive;
    seed = 7;
    engine = Engines.Typed;
  }

let run_with_kill ~kill_at path =
  let ck =
    Campaign.checkpointing ~path ~interval_ns:100_000_000
      ~on_write:(fun ordinal -> if ordinal = kill_at then raise Killed)
      ()
  in
  match Campaign.run ~checkpoint:ck ck_config (echo_entry ()) with
  | r -> Some r
  | exception Killed -> None

(* domain-safe: test-only lazy baseline, forced on a single domain *)
let prop_typed_kill_resume =
  (* Kill at any checkpoint + resume must replay the typed engine's
     selection stream and EWMA credits bit-for-bit (the engine state
     rides in the NYXCKP1 c_mut_* fields). *)
  let base = lazy (Campaign.run ck_config (echo_entry ())) in
  QCheck.Test.make
    ~name:"typed engine: kill at any checkpoint + resume == straight run"
    ~count:6
    QCheck.(int_range 1 8)
    (fun kill_at ->
      let expected = Lazy.force base in
      let path = Filename.temp_file "nyx_ckpt_engine" ".bin" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          match run_with_kill ~kill_at path with
          | Some finished -> Report.same_deterministic finished expected
          | None ->
            let ckpt =
              match Checkpoint.load path with
              | Ok c -> c
              | Error m -> Alcotest.failf "checkpoint load: %s" m
            in
            let resumed = Campaign.resume ckpt (echo_entry ()) in
            Report.same_deterministic resumed expected
            && resumed.Report.mutation <> None))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nyx_engine"
    [
      ( "typed-mutators",
        [
          QCheck_alcotest.to_alcotest prop_typed_candidates_clean;
          Alcotest.test_case "degenerate spec falls back to havoc" `Quick
            test_degenerate_spec_falls_back;
        ] );
      ( "engine",
        [
          Alcotest.test_case "havoc engine == bare mutator" `Quick
            test_havoc_engine_is_bare_mutator;
          Alcotest.test_case "credit EWMA bookkeeping" `Quick test_credit_ewma;
          Alcotest.test_case "state roundtrip + mismatch" `Quick
            test_state_roundtrip_and_mismatch;
          Alcotest.test_case "create rejects bad weights" `Quick
            test_create_rejects_bad_weights;
        ] );
      ( "registry",
        [
          Alcotest.test_case "engine names" `Quick test_engine_names;
          Alcotest.test_case "weight parsing" `Quick test_parse_weights;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "typed fleet: domains identity" `Quick
            test_typed_fleet_domains_deterministic;
          QCheck_alcotest.to_alcotest prop_typed_kill_resume;
        ] );
    ]
