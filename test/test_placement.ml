(* Adaptive snapshot placement (ISSUE: dynamic policy): the fuzzy
   protocol-state hash, the state-boundary probe, the cost-model
   hysteresis, placement stats in reports, and the determinism contract
   (same seed, NYX_DOMAINS=1 vs 4, kill+resume) for dynamic campaigns. *)

open Nyx_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let echo_entry () = Option.get (Nyx_targets.Registry.find "echo")
let ftp_entry () = Option.get (Nyx_targets.Registry.find "lightftp")

(* ------------------------------------------------------------------ *)
(* Fuzzy state hash (StateAFL-style signature over aux state)          *)

let aux_with state =
  let t = Nyx_snapshot.Aux_state.create () in
  Nyx_snapshot.Aux_state.register t
    {
      Nyx_snapshot.Aux_state.name = "conn";
      save =
        (fun () ->
          let s = !state in
          (Bytes.of_string s, fun () -> state := s));
    };
  t

let hash_of s =
  let clock = Nyx_sim.Clock.create () in
  let aux = aux_with (ref s) in
  Nyx_snapshot.Aux_state.fuzzy_hash (Nyx_snapshot.Aux_state.capture aux clock)

let prop_fuzzy_hash_deterministic =
  QCheck.Test.make ~name:"fuzzy hash: pure function of the state bytes"
    ~count:100
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      let h = hash_of s in
      (* Two independent captures of byte-identical state agree, and the
         hash is usable as a table key (non-negative). *)
      h >= 0 && h = hash_of s)

let test_fuzzy_hash_stable_over_restore () =
  let clock = Nyx_sim.Clock.create () in
  let state = ref "220 service ready\r\n" in
  let aux = aux_with state in
  let c1 = Nyx_snapshot.Aux_state.capture aux clock in
  let h1 = Nyx_snapshot.Aux_state.fuzzy_hash c1 in
  (* Mutate the live state, then roll it back from the capture: the
     signature of a fresh capture must match the original exactly. *)
  state := String.make 200 'x';
  Nyx_snapshot.Aux_state.restore aux clock c1;
  let c2 = Nyx_snapshot.Aux_state.capture aux clock in
  check_int "hash survives save/restore round-trip" h1
    (Nyx_snapshot.Aux_state.fuzzy_hash c2);
  check_int "payload restored byte-for-byte"
    (Nyx_snapshot.Aux_state.size_bytes c1)
    (Nyx_snapshot.Aux_state.size_bytes c2)

(* ------------------------------------------------------------------ *)
(* Executor state-boundary probe                                       *)

let test_state_boundaries_interior () =
  let entry = Option.get (Nyx_targets.Registry.find "exim") in
  let ns = Campaign.net_spec () in
  let exec = Executor.create ~net_spec:ns entry.Nyx_targets.Registry.target in
  let packets =
    [ "EHLO c\r\n"; "MAIL FROM:<a@b>\r\n"; "RCPT TO:<c@d>\r\n"; "DATA\r\n"; "hi\r\n.\r\n" ]
  in
  let p = Nyx_spec.Net_spec.seed_of_packets ns (List.map Bytes.of_string packets) in
  let n = Array.length p.Nyx_spec.Program.ops in
  let b1 = Executor.state_boundaries exec p in
  check_bool "SMTP dialogue crosses protocol states" true (b1 <> []);
  check_bool "boundaries are interior indices" true
    (List.for_all (fun i -> i >= 1 && i <= n - 1) b1);
  check_bool "boundaries are sorted" true (List.sort compare b1 = b1);
  (* The probe replays the program and must leave the instance clean:
     probing twice gives the same answer. *)
  Alcotest.(check (list int)) "probe is repeatable" b1 (Executor.state_boundaries exec p)

(* ------------------------------------------------------------------ *)
(* Dynamic policy unit behaviour                                       *)

let dyn_policy () = Policy.create Policy.Dynamic (Nyx_sim.Rng.create 1)

let full_ns = 1_000_000

let test_boundaries_clamped_to_interior () =
  let p = dyn_policy () in
  (match Policy.prepare_dynamic p ~input_id:3 ~packets:8 ~full_ns with
  | `Probe -> ()
  | `Ready -> Alcotest.fail "fresh entry must ask for a probe");
  Policy.set_boundaries p ~input_id:3 ~packets:8 ~boundaries:[ 0; 3; 99 ];
  (match Policy.prepare_dynamic p ~input_id:3 ~packets:8 ~full_ns with
  | `Ready -> ()
  | `Probe -> Alcotest.fail "probed entry must not probe again");
  (* 0 and 99 are not interior; the single surviving boundary wins the
     bootstrap cost model outright. *)
  match Policy.decide p ~input_id:3 ~packets:8 with
  | `At 3 -> ()
  | `At i -> Alcotest.failf "snapped to %d, wanted boundary 3" i
  | `Root -> Alcotest.fail "bootstrap estimate must beat the root"

let test_no_boundaries_degrades_to_deepest () =
  let p = dyn_policy () in
  ignore (Policy.prepare_dynamic p ~input_id:1 ~packets:8 ~full_ns);
  Policy.set_boundaries p ~input_id:1 ~packets:8 ~boundaries:[];
  (match Policy.decide p ~input_id:1 ~packets:8 with
  | `At 7 -> ()
  | _ -> Alcotest.fail "empty probe must fall back to packets-1");
  (* The fallback candidate is synthetic, not a genuine boundary. *)
  match Policy.placement_stats p with
  | Some s -> check_int "no genuine boundary counted" 0 s.Report.boundary_count
  | None -> Alcotest.fail "dynamic policy must report stats"

let test_short_inputs_stay_on_root () =
  let p = dyn_policy () in
  (match Policy.prepare_dynamic p ~input_id:9 ~packets:4 ~full_ns with
  | `Ready -> ()
  | `Probe -> Alcotest.fail "short inputs must not be probed");
  match Policy.decide p ~input_id:9 ~packets:4 with
  | `Root -> ()
  | `At _ -> Alcotest.fail "inputs below the minimum always use the root"

let test_hysteresis_margin_and_cooldown () =
  let p = dyn_policy () in
  ignore (Policy.prepare_dynamic p ~input_id:7 ~packets:8 ~full_ns);
  Policy.set_boundaries p ~input_id:7 ~packets:8 ~boundaries:[ 2; 6 ];
  (* Bootstrap prorates the full cost: the deepest boundary is cheapest. *)
  (match Policy.decide p ~input_id:7 ~packets:8 with
  | `At 6 -> ()
  | _ -> Alcotest.fail "bootstrap must adopt the deepest boundary");
  check_bool "adoption is not a move" true (Policy.last_move p = None);
  (* One dry round makes index 2 nominally cheaper, but not by the move
     margin: the placement must hold. *)
  Policy.notify_no_news p ~input_id:7;
  (match Policy.decide p ~input_id:7 ~packets:8 with
  | `At 6 -> ()
  | _ -> Alcotest.fail "a sub-margin improvement must not trigger a move");
  check_bool "no move recorded" true (Policy.last_move p = None);
  (* A second dry round pushes the staleness penalty past the margin. *)
  Policy.notify_no_news p ~input_id:7;
  (match Policy.decide p ~input_id:7 ~packets:8 with
  | `At 2 -> ()
  | _ -> Alcotest.fail "past the margin the snapshot must relocate");
  (match Policy.last_move p with
  | Some (7, 6, 2) -> ()
  | _ -> Alcotest.fail "the move must be reported as (input 7, 6 -> 2)");
  (* Immediately after a move the cooldown pins the placement even if the
     model already prefers somewhere else — thrashing is impossible. *)
  Policy.notify_no_news p ~input_id:7;
  (match Policy.decide p ~input_id:7 ~packets:8 with
  | `At 2 -> ()
  | _ -> Alcotest.fail "cooldown must pin the fresh placement");
  check_bool "cooldown decide clears last_move" true (Policy.last_move p = None);
  match Policy.placement_stats p with
  | Some s ->
    check_int "one probe" 1 s.Report.probes;
    check_int "exactly one move" 1 s.Report.moves;
    check_int "two genuine boundaries" 2 s.Report.boundary_count;
    Alcotest.(check (list (pair int int))) "final placement" [ (7, 2) ]
      s.Report.placements
  | None -> Alcotest.fail "dynamic policy must report stats"

let test_news_resets_staleness () =
  let p = dyn_policy () in
  ignore (Policy.prepare_dynamic p ~input_id:5 ~packets:8 ~full_ns);
  Policy.set_boundaries p ~input_id:5 ~packets:8 ~boundaries:[ 2; 6 ];
  ignore (Policy.decide p ~input_id:5 ~packets:8);
  (* Dry, dry, then news: the reset must cancel the pending relocation. *)
  Policy.notify_no_news p ~input_id:5;
  Policy.notify_no_news p ~input_id:5;
  Policy.notify_news p ~input_id:5;
  (match Policy.decide p ~input_id:5 ~packets:8 with
  | `At 6 -> ()
  | _ -> Alcotest.fail "news must shed the staleness and keep the placement");
  match Policy.placement_stats p with
  | Some s -> check_int "no move after reset" 0 s.Report.moves
  | None -> Alcotest.fail "stats"

let test_static_policies_report_no_stats () =
  List.iter
    (fun k ->
      let p = Policy.create k (Nyx_sim.Rng.create 1) in
      check_bool (Policy.name k ^ " reports no placement stats") true
        (Policy.placement_stats p = None))
    [ Policy.None_; Policy.Balanced; Policy.Aggressive ]

let test_policy_state_roundtrip () =
  (* The adaptive table survives save/load exactly:
     a restored policy makes the same next decision, including the
     armed (one-dry-round-from-moving) staleness. *)
  let p1 = dyn_policy () in
  ignore (Policy.prepare_dynamic p1 ~input_id:7 ~packets:8 ~full_ns);
  Policy.set_boundaries p1 ~input_id:7 ~packets:8 ~boundaries:[ 2; 6 ];
  ignore (Policy.decide p1 ~input_id:7 ~packets:8);
  Policy.notify_no_news p1 ~input_id:7;
  let st = Policy.save p1 in
  let p2 = dyn_policy () in
  Policy.load p2 st;
  check_bool "restored state is re-checkpointable identically" true
    (Policy.save p2 = st);
  Policy.notify_no_news p1 ~input_id:7;
  Policy.notify_no_news p2 ~input_id:7;
  let a = Policy.decide p1 ~input_id:7 ~packets:8 in
  let b = Policy.decide p2 ~input_id:7 ~packets:8 in
  check_bool "original and restored policies decide alike" true (a = b);
  check_bool "both relocated to the shallow boundary" true (a = `At 2)

(* ------------------------------------------------------------------ *)
(* Dynamic campaigns: stats, determinism, fleet and kill+resume        *)

let dyn_config ?(seed = 7) ?(budget_ns = 2_000_000_000) ?(max_execs = 2_000) () =
  {
    Campaign.default_config with
    Campaign.budget_ns;
    max_execs;
    policy = Policy.Dynamic;
    seed;
  }

let test_dynamic_campaign_reports_placement () =
  let r = Campaign.run (dyn_config ()) (ftp_entry ()) in
  match r.Report.placement with
  | None -> Alcotest.fail "dynamic campaign must attach placement stats"
  | Some s ->
    check_bool "probed at least the seed entry" true (s.Report.probes >= 1);
    check_bool "found protocol-state boundaries" true (s.Report.boundary_count > 0);
    check_bool "placed at least one entry" true (s.Report.placements <> []);
    List.iter
      (fun (id, idx) ->
        check_bool (Printf.sprintf "entry %d placed at sane index %d" id idx)
          true (idx >= 0))
      s.Report.placements

let test_static_campaign_reports_none () =
  let cfg = { (dyn_config ()) with Campaign.policy = Policy.Aggressive } in
  let r = Campaign.run cfg (ftp_entry ()) in
  check_bool "static campaigns carry no placement stats" true
    (r.Report.placement = None)

let prop_dynamic_same_seed_bit_identical =
  QCheck.Test.make ~name:"dynamic campaign: same seed, same report" ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      let cfg = dyn_config ~seed ~budget_ns:1_200_000_000 ~max_execs:1_500 () in
      let entry = ftp_entry () in
      Report.same_deterministic (Campaign.run cfg entry) (Campaign.run cfg entry))

(* Deterministic projection of a fleet outcome, as in test_fleet_sync. *)
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

let test_dynamic_fleet_domain_independent () =
  let entry = ftp_entry () in
  let config = dyn_config ~budget_ns:1_200_000_000 ~max_execs:3_000 () in
  let seq =
    Fleet.run ~instances:4 ~domains:1 ~sync_ns:200_000_000 ~config entry
  in
  let par =
    Fleet.run ~instances:4 ~domains:4 ~sync_ns:200_000_000 ~config entry
  in
  check_bool "dynamic fleet: 4 domains == 1 domain" true (same_outcome seq par);
  check_bool "dynamic instances carry placement stats" true
    (List.for_all (fun r -> r.Report.placement <> None) seq.Fleet.results)

(* Kill+resume, the resilience harness pointed at a dynamic campaign on
   a multi-state target (lightftp: 7 program packets, so the adaptive
   table is populated when the checkpoint lands). *)

exception Killed

let run_with_kill ~kill_at path =
  let ck =
    Campaign.checkpointing ~path ~interval_ns:100_000_000
      ~on_write:(fun ordinal -> if ordinal = kill_at then raise Killed)
      ()
  in
  match Campaign.run ~checkpoint:ck (dyn_config ()) (ftp_entry ()) with
  | r -> Some r
  | exception Killed -> None

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "checkpoint load failed: %s" e

(* domain-safe: test-only lazy baseline, forced on a single domain *)
let prop_dynamic_kill_resume_bit_identical =
  let expected = lazy (Campaign.run (dyn_config ()) (ftp_entry ())) in
  QCheck.Test.make
    ~name:"dynamic: kill at any checkpoint + resume == straight run" ~count:6
    QCheck.(int_range 1 10)
    (fun kill_at ->
      let expected = Lazy.force expected in
      let path = Filename.temp_file "nyx_place_ckpt" ".bin" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          match run_with_kill ~kill_at path with
          | Some finished -> Report.same_deterministic finished expected
          | None ->
            let resumed =
              Campaign.resume (ok (Checkpoint.load path)) (ftp_entry ())
            in
            Report.same_deterministic resumed expected))

(* ------------------------------------------------------------------ *)
(* Spec lint: the dynamic-degenerate warning                           *)

let codes diags = List.map (fun d -> d.Nyx_analysis.Diag.code) diags

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_lint_degenerate_single_opcode () =
  (* One constructible non-snapshot opcode: every generated program is a
     run of "send"s, so the boundary probe can never fire after index 0. *)
  let b = Nyx_spec.Spec.start "mono" in
  let d = Nyx_spec.Spec.data_type b ~max_len:8 "payload" in
  let _send = Nyx_spec.Spec.node_type b ~data:[ d ] "send" in
  let diags = Nyx_analysis.Spec_lint.check (Nyx_spec.Spec.finalize b) in
  check_bool "warns dynamic-degenerate" true
    (List.mem "dynamic-degenerate" (codes diags));
  match
    List.find_opt (fun d -> d.Nyx_analysis.Diag.code = "dynamic-degenerate") diags
  with
  | Some d ->
    check_bool "provenance names the surviving opcode" true
      (contains d.Nyx_analysis.Diag.msg "\"send\"")
  | None -> Alcotest.fail "finding vanished"

let test_lint_degenerate_nothing_constructible () =
  (* Zero constructible opcodes is the degenerate case too (on top of the
     unconstructible-node errors). *)
  let b = Nyx_spec.Spec.start "stuck" in
  let x = Nyx_spec.Spec.edge_type b "x" in
  let _use = Nyx_spec.Spec.node_type b ~borrows:[ x ] "use" in
  let diags = Nyx_analysis.Spec_lint.check (Nyx_spec.Spec.finalize b) in
  check_bool "warns dynamic-degenerate" true
    (List.mem "dynamic-degenerate" (codes diags));
  check_bool "still reports the constructibility error" true
    (List.mem "unconstructible-node" (codes diags))

let test_lint_shipped_net_spec_not_degenerate () =
  let ns = Campaign.net_spec () in
  check_bool "raw network spec has a real state surface" false
    (List.mem "dynamic-degenerate"
       (codes (Nyx_analysis.Spec_lint.check ns.Nyx_spec.Net_spec.spec)))

(* ------------------------------------------------------------------ *)

let () =
  ignore (echo_entry ());
  Alcotest.run "nyx_placement"
    [
      ( "fuzzy-hash",
        [
          QCheck_alcotest.to_alcotest prop_fuzzy_hash_deterministic;
          Alcotest.test_case "stable over save/restore" `Quick
            test_fuzzy_hash_stable_over_restore;
        ] );
      ( "state-probe",
        [
          Alcotest.test_case "boundaries are interior and repeatable" `Quick
            test_state_boundaries_interior;
        ] );
      ( "policy",
        [
          Alcotest.test_case "boundaries clamped to interior" `Quick
            test_boundaries_clamped_to_interior;
          Alcotest.test_case "empty probe degrades to deepest" `Quick
            test_no_boundaries_degrades_to_deepest;
          Alcotest.test_case "short inputs stay on root" `Quick
            test_short_inputs_stay_on_root;
          Alcotest.test_case "hysteresis margin and cooldown" `Quick
            test_hysteresis_margin_and_cooldown;
          Alcotest.test_case "news resets staleness" `Quick
            test_news_resets_staleness;
          Alcotest.test_case "static policies report no stats" `Quick
            test_static_policies_report_no_stats;
          Alcotest.test_case "state roundtrip" `Quick test_policy_state_roundtrip;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "dynamic campaign reports placement" `Slow
            test_dynamic_campaign_reports_placement;
          Alcotest.test_case "static campaign reports none" `Slow
            test_static_campaign_reports_none;
          QCheck_alcotest.to_alcotest prop_dynamic_same_seed_bit_identical;
          Alcotest.test_case "fleet: 4 domains == 1 domain" `Slow
            test_dynamic_fleet_domain_independent;
          QCheck_alcotest.to_alcotest prop_dynamic_kill_resume_bit_identical;
        ] );
      ( "lint",
        [
          Alcotest.test_case "single-opcode spec is degenerate" `Quick
            test_lint_degenerate_single_opcode;
          Alcotest.test_case "nothing-constructible spec is degenerate" `Quick
            test_lint_degenerate_nothing_constructible;
          Alcotest.test_case "shipped net spec is not degenerate" `Quick
            test_lint_shipped_net_spec_not_degenerate;
        ] );
    ]
