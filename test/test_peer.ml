(* --mode peer: typed encoder-fault transforms, the scripted cooperating
   peer, supervised desync recovery, and the peer campaign determinism
   contracts (fault-free goldens, kill+resume, fleet domain identity). *)

open Nyx_core
module Fault = Nyx_resilience.Fault
module Plan = Nyx_resilience.Plan
module Backoff = Nyx_resilience.Backoff
module Atomic_io = Nyx_resilience.Atomic_io
module Peer_fault = Nyx_peer.Peer_fault
module Peer_script = Nyx_peer.Peer_script

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let b = Bytes.of_string

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.fail ("expected Ok, got Error: " ^ m)

let entry name = Option.get (Nyx_targets.Registry.find name)
let script name = Option.get (Peer_script.find name)

let peer_config =
  {
    Campaign.default_config with
    Campaign.budget_ns = 1_500_000_000;
    max_execs = 1_500;
    policy = Policy.Aggressive;
    seed = 7;
  }

let all_peer_faults = ok (Peer_fault.parse_spec "all:0.5")

(* ------------------------------------------------------------------ *)
(* Spec parsing: peer sites, short names, actionable errors            *)

let test_parse_spec () =
  let sp = ok (Peer_fault.parse_spec "all:0.5") in
  check_int "all = six peer sites" 6 (List.length sp);
  List.iter
    (fun (site, r) ->
      check_bool "peer site" true (Fault.is_peer_site site);
      check_bool "rate" true (r = 0.5))
    sp;
  check_bool "short name" true
    (ok (Peer_fault.parse_spec "length-lie:1.0")
    = [ (Fault.Peer_length_lie, 1.0) ]);
  check_bool "full name equivalent" true
    (ok (Peer_fault.parse_spec "peer-length-lie:1.0")
    = ok (Peer_fault.parse_spec "length-lie:1.0"));
  let err s =
    match Peer_fault.parse_spec s with
    | Error m -> m
    | Ok _ -> Alcotest.fail ("expected Error for " ^ s)
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (* Errors must name the offending token and list the valid sites. *)
  let m = err "bogus:0.5" in
  check_bool "names the token" true (contains m "bogus");
  check_bool "lists a valid site" true (contains m "length-lie");
  let m = err "wedge:0.5" in
  check_bool "rejects non-peer site by name" true (contains m "wedge");
  check_bool "points at --faults" true (contains m "peer");
  check_bool "bad rate is an error" true
    (match Peer_fault.parse_spec "flip:7.0" with Error _ -> true | Ok _ -> false)

let test_plan_spec_errors_list_peer_sites () =
  (* The core Plan parser's diagnostics now cover the peer sites too. *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (match Plan.parse_spec "bogus:0.1" with
  | Error m ->
    check_bool "names token" true (contains m "bogus");
    check_bool "lists peer-flip" true (contains m "peer-flip")
  | Ok _ -> Alcotest.fail "unknown site must be an error");
  let all = ok (Plan.parse_spec "all:0.25") in
  check_int "all covers every site" Fault.num_sites (List.length all)

(* ------------------------------------------------------------------ *)
(* Encoder fault transforms: pure, typed, total on peer sites          *)

let mk_fault site seq site_seq =
  { Fault.site; seq; site_seq; vns = 0 }

let sample_msg () =
  (* [LEN][body: name field + payload], outer length at 0 (1 byte). *)
  let wire = Bytes.of_string "\x09NAMEabcde" in
  {
    Peer_fault.m_name = "sample";
    m_bytes = wire;
    m_fields =
      [
        {
          Peer_fault.f_name = "outer";
          f_kind = Peer_fault.Outer_len;
          f_pos = 0;
          f_len = 1;
          f_big_endian = true;
        };
        {
          Peer_fault.f_name = "name";
          f_kind = Peer_fault.Field;
          f_pos = 1;
          f_len = 4;
          f_big_endian = false;
        };
      ];
    m_reframe =
      Some
        (fun body ->
          Bytes.set body 0 (Char.chr (Bytes.length body - 1));
          body);
  }

let test_transforms_deterministic_and_total () =
  let msg = sample_msg () in
  List.iteri
    (fun i site ->
      let f = mk_fault site (i * 3) i in
      let out1, d1 = Peer_fault.apply f msg in
      let out2, d2 = Peer_fault.apply f msg in
      check_bool "pure in (fault, msg)" true (out1 = out2 && d1 = d2);
      check_bool "never empty" true (out1 <> []);
      List.iter
        (fun w -> check_bool "never an empty wire image" true (Bytes.length w > 0))
        out1)
    Fault.peer_sites;
  (* Site-specific shapes. *)
  let apply site = fst (Peer_fault.apply (mk_fault site 5 2) msg) in
  (match apply Fault.Peer_duplicate with
  | [ a; b' ] -> check_bool "duplicate = two copies" true (a = b')
  | _ -> Alcotest.fail "duplicate must emit two wire images");
  (match apply Fault.Peer_flip with
  | [ w ] ->
    check_int "flip keeps length" (Bytes.length msg.Peer_fault.m_bytes)
      (Bytes.length w);
    let diffs = ref 0 in
    Bytes.iteri
      (fun i c -> if c <> Bytes.get msg.Peer_fault.m_bytes i then incr diffs)
      w;
    check_int "flip changes one byte" 1 !diffs
  | _ -> Alcotest.fail "flip must emit one wire image");
  (match apply Fault.Peer_truncate with
  | [ w ] ->
    check_bool "truncate shortens" true
      (Bytes.length w < Bytes.length msg.Peer_fault.m_bytes);
    check_int "truncate reframes the outer length"
      (Bytes.length w - 1)
      (Char.code (Bytes.get w 0))
  | _ -> Alcotest.fail "truncate must emit one wire image");
  (match apply Fault.Peer_drop_field with
  | [ w ] ->
    check_int "drop-field excises the annotated field"
      (Bytes.length msg.Peer_fault.m_bytes - 4)
      (Bytes.length w)
  | _ -> Alcotest.fail "drop-field must emit one wire image");
  (match apply Fault.Peer_desync_frame with
  | [ w ] ->
    check_bool "desync-frame lies in the outer length" true
      (Char.code (Bytes.get w 0) <> Bytes.length w - 1)
  | _ -> Alcotest.fail "desync-frame must emit one wire image");
  (* Non-peer sites are a caller bug. *)
  check_bool "non-peer site raises" true
    (match Peer_fault.apply (mk_fault Fault.Guest_wedge 0 0) msg with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_length_lie_bumps_inner_len () =
  (* With an Inner_len annotation the lie prefers it: the field's value
     grows while the outer framing stays consistent (reframed). *)
  let wire = Bytes.of_string "\x0bHDR\x05stuff--" in
  let msg =
    {
      Peer_fault.m_name = "inner";
      m_bytes = wire;
      m_fields =
        [
          {
            Peer_fault.f_name = "outer";
            f_kind = Peer_fault.Outer_len;
            f_pos = 0;
            f_len = 1;
            f_big_endian = true;
          };
          {
            Peer_fault.f_name = "stuff-len";
            f_kind = Peer_fault.Inner_len;
            f_pos = 4;
            f_len = 1;
            f_big_endian = true;
          };
        ];
      m_reframe =
        Some
          (fun body ->
            Bytes.set body 0 (Char.chr (Bytes.length body - 1));
            body);
    }
  in
  match fst (Peer_fault.apply (mk_fault Fault.Peer_length_lie 9 4) msg) with
  | [ w ] ->
    check_bool "inner length bumped" true
      (Char.code (Bytes.get w 4) > Char.code (Bytes.get wire 4));
    check_int "outer framing reseals" (Bytes.length w - 1)
      (Char.code (Bytes.get w 0))
  | _ -> Alcotest.fail "length-lie must emit one wire image"

(* ------------------------------------------------------------------ *)
(* Scripts and the payload codec                                       *)

let test_scripts_well_formed () =
  let names = Peer_script.supported () in
  check_bool "several scripted targets" true (List.length names >= 3);
  List.iter
    (fun name ->
      check_bool "registry has the target" true
        (Nyx_targets.Registry.find name <> None);
      let s = script name in
      check_bool "has actions" true (Array.length s.Peer_script.p_actions > 0);
      check_bool "quarantine budget positive" true
        (s.Peer_script.p_quarantine_after > 0);
      check_bool "has seed sessions" true (s.Peer_script.p_seed_actions <> []);
      List.iter
        (fun session ->
          List.iter
            (fun a ->
              check_bool "seed action in range" true
                (a >= 0 && a < Array.length s.Peer_script.p_actions))
            session)
        s.Peer_script.p_seed_actions)
    names

let test_payload_codec () =
  let s = script "lightftp" in
  let n = Array.length s.Peer_script.p_actions in
  check_int "an empty payload arms no fault" 0 (Peer_script.payload_selector Bytes.empty);
  check_int "a one-byte payload arms no fault" 0 (Peer_script.payload_selector (b "\x03"));
  let honest = Peer_script.payload_of 3 in
  check_int "honest payload's action" 3 (Peer_script.payload_action s honest);
  check_int "honest payload arms no fault" 0 (Peer_script.payload_selector honest);
  let faulted = Peer_script.payload_of ~fault:4 2 in
  check_int "faulted payload's action" 2 (Peer_script.payload_action s faulted);
  check_bool "selector 4 = fourth peer site" true
    (Peer_script.selector_site (Peer_script.payload_selector faulted) = List.nth Fault.peer_sites 3);
  List.iteri
    (fun i site ->
      check_bool "selectors 1..6 = peer sites in order" true
        (Peer_script.selector_site (i + 1) = site))
    Fault.peer_sites;
  (* Out-of-range bytes wrap instead of rejecting (mutators are free to
     write anything). *)
  let wild = Bytes.cat (Bytes.make 1 (Char.chr (n + 1))) (b "\x09") in
  check_int "action wraps mod palette" 1 (Peer_script.payload_action s wild);
  check_int "selector wraps mod 7" 2 (Peer_script.payload_selector wild)

(* ------------------------------------------------------------------ *)
(* Shared scripts: built once, never written, traced runs unchanged    *)

module Trace = Nyx_obs.Trace

(* Every (action, message) of a script, in palette order. *)
let messages s =
  List.concat_map
    (fun a -> List.map (fun m -> (a.Peer_script.a_name, m)) a.Peer_script.a_messages)
    (Array.to_list s.Peer_script.p_actions)

let messages_digest s =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (a, m) ->
      Buffer.add_string buf a;
      Buffer.add_char buf '\000';
      Buffer.add_string buf m.Peer_fault.m_name;
      Buffer.add_char buf '\000';
      Buffer.add_bytes buf m.Peer_fault.m_bytes;
      Buffer.add_char buf '\001')
    (messages s);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Per script, recorded before scripts were shared: the digest of its
   message bytes, of every encoder fault applied to every message (seq
   0..19, site_seq 0..4, wire images and traced details), and the
   number and digest of the "peer-fault" instants, as
   site|seq|message|detail lines, of [golden_campaign] on its target. *)
let script_goldens =
  [
    ( "lightftp",
      ( "c16121b90e3ea4416a100b8050407e77",
        "f9f3716e7673b1cce2a35fcb1c856025",
        (110, "19916da3e7801ad9cbdc6eb2a6e9908d") ) );
    ( "proftpd",
      ( "56a608d6ee28801fb61bf00eaccf810c",
        "8e11af0f1515cfca8f47c47820e83a09",
        (86, "b418b861adeaffb92c551cc031a1291a") ) );
    ( "tinydtls",
      ( "3bd98d4c929517fd91849265fb7552ba",
        "81841fa4c35c7e0a2ff225706e0c59ed",
        (99, "f47b798524076847e681dd7e051a1d30") ) );
    ( "mysql-client",
      ( "9caca9c53b7daae6fa384a03b5fb6617",
        "4347079b9c09486dfb94aa626a003f26",
        (108, "544de22d422f118ec3597a493f92bc99") ) );
  ]

(* Every encoder fault over a grid of provenances, applied to [msg]. *)
let apply_grid msg =
  List.concat_map
    (fun site ->
      List.concat
        (List.init 20 (fun seq ->
             List.init 5 (fun site_seq -> Peer_fault.apply (mk_fault site seq site_seq) msg))))
    Fault.peer_sites

let grid_digest results =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (wires, detail) ->
      List.iter
        (fun w ->
          Buffer.add_bytes buf w;
          Buffer.add_char buf '\000')
        wires;
      Buffer.add_string buf detail;
      Buffer.add_char buf '\001')
    results;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_campaign name =
  Campaign.run ~peer:(script name) ~peer_faults:all_peer_faults
    { peer_config with Campaign.max_execs = 300 }
    (entry name)

let test_scripts_shared_never_written () =
  List.iter
    (fun name ->
      let msgs_golden, apply_golden, _ = List.assoc name script_goldens in
      check_bool "find returns the one shared script" true
        (Peer_script.find name == Peer_script.find name);
      let s = script name in
      Alcotest.(check string) (name ^ " messages as recorded") msgs_golden (messages_digest s);
      let untraced = List.concat_map (fun (_, m) -> apply_grid m) (messages s) in
      let traced, _ =
        Trace.with_memory_sink (fun () -> List.concat_map (fun (_, m) -> apply_grid m) (messages s))
      in
      Alcotest.(check string) (name ^ " faulted images and traced details as recorded")
        apply_golden (grid_digest traced);
      (* Untraced, the images are the same; only details may be empty. *)
      check_bool (name ^ " images independent of tracing") true
        (List.map fst untraced = List.map fst traced);
      ignore (golden_campaign name);
      Alcotest.(check string) (name ^ " messages unchanged by faults and a campaign") msgs_golden
        (messages_digest s))
    (Peer_script.supported ());
  (* The sample's reframe writes into its argument: it only ever gets a
     private buffer. *)
  let msg = sample_msg () in
  let before = Bytes.copy msg.Peer_fault.m_bytes in
  ignore (apply_grid msg);
  check_bool "a writing reframe never sees m_bytes" true (Bytes.equal before msg.Peer_fault.m_bytes)

let fault_instants events =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.name <> "peer-fault" then None
      else
        let field f =
          match List.assoc f e.Trace.fields with
          | Trace.Str v -> v
          | Trace.Int i -> string_of_int i
          | _ -> Alcotest.failf "peer-fault field %s" f
        in
        Some (List.map field [ "site"; "seq"; "message"; "detail" ]))
    events

let test_traced_runs_unchanged () =
  List.iter
    (fun name ->
      let _, _, (n_golden, digest_golden) = List.assoc name script_goldens in
      let plain = golden_campaign name in
      let traced, events = Trace.with_memory_sink (fun () -> golden_campaign name) in
      check_bool (name ^ ": traced == untraced") true (Report.same_deterministic plain traced);
      let instants = fault_instants events in
      List.iter
        (fun i -> check_bool (name ^ ": detail formatted") true (List.nth i 3 <> ""))
        instants;
      check_int (name ^ ": peer-fault instants") n_golden (List.length instants);
      Alcotest.(check string) (name ^ ": instants as recorded") digest_golden
        (Digest.to_hex
           (Digest.string
              (String.concat "" (List.map (fun i -> String.concat "|" i ^ "\n") instants)))))
    (Peer_script.supported ())

(* ------------------------------------------------------------------ *)
(* Supervised recovery: desync -> backoff -> restart -> quarantine     *)

let test_backoff_saturation () =
  (* The driver charges delay_ns with attempt = min (streak-1) 30; the
     cap must hold at the clamp boundary without overflow. *)
  let d attempt =
    Backoff.delay_ns ~base_ns:1_000_000 ~cap_ns:64_000_000 ~attempt
  in
  check_int "attempt 0" 1_000_000 (d 0);
  check_int "attempt 5" 32_000_000 (d 5);
  check_int "attempt 6 saturates" 64_000_000 (d 6);
  check_int "attempt 30 stays capped" 64_000_000 (d 30);
  check_bool "monotone up to the cap" true
    (List.for_all (fun i -> d i <= d (i + 1)) (List.init 30 Fun.id))

let desync_seed () =
  (* PASS before USER forever: every expectation (230) fails, so the
     session desyncs, backs off, restarts and finally quarantines. *)
  let s = script "lightftp" in
  let pass =
    Option.get
      (Array.find_index
         (fun a -> a.Peer_script.a_name = "pass")
         s.Peer_script.p_actions)
  in
  let spec = Campaign.net_spec () in
  [
    Nyx_spec.Net_spec.seed_of_packets spec
      (List.init 6 (fun _ -> Peer_script.payload_of pass));
  ]

let test_desync_quarantine_partial_results () =
  let cfg = { peer_config with Campaign.max_execs = 40 } in
  let r =
    Campaign.run ~peer:(script "lightftp") ~seeds:(desync_seed ()) cfg
      (entry "lightftp")
  in
  let p = Option.get r.Report.peer in
  check_bool "campaign completed with partial results" true (r.Report.execs > 0);
  check_bool "desyncs counted" true (p.Report.peer_desyncs >= 3);
  check_bool "restarts counted" true (p.Report.peer_restarts >= 2);
  check_bool "session quarantined" true (p.Report.peer_quarantines >= 1);
  check_bool "backoff charged to virtual time" true (p.Report.peer_backoff_ns > 0);
  check_bool "no faults were armed" true (r.Report.resilience = None)

let test_fleet_quarantine_then_partial_results () =
  (* A fleet where one peer instance always dies: the supervisor must
     quarantine exactly that instance and return the peer survivors'
     partial results. *)
  let cfg = { peer_config with Campaign.max_execs = 120 } in
  let e = entry "lightftp" in
  let s = script "lightftp" in
  let fleet =
    Fleet.run ~instances:3 ~domains:1 ~max_restarts:1
      ~run_instance:(fun c ->
        if c.Campaign.seed = cfg.Campaign.seed + 1000 then
          failwith "test: injected peer instance failure"
        else Campaign.run ~peer:s ~peer_faults:all_peer_faults c e)
      ~config:cfg e
  in
  check_int "one quarantined" 1 fleet.Fleet.quarantined;
  check_int "two survivors" 2 (List.length fleet.Fleet.results);
  check_int "retry budget honoured" 1 fleet.Fleet.restarts;
  List.iter
    (fun r ->
      check_bool "survivors carry peer stats" true (r.Report.peer <> None))
    fleet.Fleet.results

(* ------------------------------------------------------------------ *)
(* Determinism contracts                                               *)

let test_fault_free_golden () =
  (* A peer campaign with every encoder rate at zero arms no plan and is
     byte-identical to one that never mentioned faults at all. *)
  let e = entry "lightftp" in
  let s = script "lightftp" in
  let plain = Campaign.run ~peer:s peer_config e in
  let zeroed =
    Campaign.run ~peer:s
      ~peer_faults:(List.map (fun site -> (site, 0.0)) Fault.peer_sites)
      peer_config e
  in
  check_bool "no resilience block without live rates" true
    (plain.Report.resilience = None && zeroed.Report.resilience = None);
  check_bool "zero-rate peer faults change nothing" true
    (Report.same_deterministic plain zeroed);
  check_bool "peer stats present" true (plain.Report.peer <> None)

let test_peer_campaign_deterministic () =
  let e = entry "tinydtls" in
  let s = script "tinydtls" in
  let r1 = Campaign.run ~peer:s ~peer_faults:all_peer_faults peer_config e in
  let r2 = Campaign.run ~peer:s ~peer_faults:all_peer_faults peer_config e in
  check_bool "same-seed peer campaigns agree" true
    (Report.same_deterministic r1 r2);
  let res = Option.get r1.Report.resilience in
  check_bool "encoder faults fired" true (res.Report.faults_injected > 0);
  check_int "all recovered" 0 res.Report.faults_aborted;
  let p = Option.get r1.Report.peer in
  check_bool "fired counters track the plan" true
    (List.fold_left (fun a (_, n) -> a + n) 0 p.Report.peer_fired
    = res.Report.faults_injected)

let test_fleet_domains_identity () =
  (* NYX_DOMAINS must never leak into peer results: a synced peer fleet
     at 1 worker and at 4 workers is bit-identical. *)
  let cfg = { peer_config with Campaign.max_execs = 250 } in
  let e = entry "lightftp" in
  let s = script "lightftp" in
  let run domains =
    Fleet.run ~instances:3 ~domains ~peer:s ~peer_faults:all_peer_faults
      ~sync_ns:300_000_000 ~config:cfg e
  in
  let f1 = run 1 and f4 = run 4 in
  check_int "same survivor count" (List.length f1.Fleet.results)
    (List.length f4.Fleet.results);
  List.iter2
    (fun a b' ->
      check_bool "per-instance results identical" true
        (Report.same_deterministic a b'))
    f1.Fleet.results f4.Fleet.results;
  check_bool "same union coverage" true
    (f1.Fleet.union_edges = f4.Fleet.union_edges);
  check_bool "same epoch rows" true (f1.Fleet.sync_epochs = f4.Fleet.sync_epochs)

(* Kill at any checkpoint + resume == the uninterrupted run, with and
   without peer encoder faults armed. Resume infers peer mode from the
   checkpoint's c_peer block — no peer argument is passed. *)

exception Killed

let peer_ck_config = { peer_config with Campaign.max_execs = 600 }

let run_peer_with_kill ~peer_faults ~kill_at path =
  let ck =
    Campaign.checkpointing ~path ~interval_ns:100_000_000
      ~on_write:(fun ordinal -> if ordinal = kill_at then raise Killed)
      ()
  in
  match
    Campaign.run ~peer:(script "lightftp") ?peer_faults ~checkpoint:ck
      peer_ck_config (entry "lightftp")
  with
  | r -> Some r
  | exception Killed -> None

(* domain-safe: test-only lazy baseline, forced on a single domain *)
let prop_peer_kill_resume_bit_identical =
  let baseline peer_faults =
    Campaign.run ~peer:(script "lightftp") ?peer_faults peer_ck_config
      (entry "lightftp")
  in
  let base_plain = lazy (baseline None) in
  let base_faulted = lazy (baseline (Some all_peer_faults)) in
  QCheck.Test.make
    ~name:"peer kill at any checkpoint + resume == straight run" ~count:6
    QCheck.(pair (int_range 1 8) bool)
    (fun (kill_at, with_faults) ->
      let peer_faults = if with_faults then Some all_peer_faults else None in
      let expected =
        Lazy.force (if with_faults then base_faulted else base_plain)
      in
      let path = Filename.temp_file "nyx_peer_ckpt" ".bin" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          match run_peer_with_kill ~peer_faults ~kill_at path with
          | Some finished -> Report.same_deterministic finished expected
          | None ->
            let ckpt = ok (Checkpoint.load path) in
            check_bool "checkpoint carries peer counters" true
              (ckpt.Checkpoint.c_peer <> None);
            let resumed = Campaign.resume ckpt (entry "lightftp") in
            Report.same_deterministic resumed expected))

(* ------------------------------------------------------------------ *)
(* Atomic_io regression: orphan sweep + fsync'd temp                   *)

let test_atomic_io_orphan_sweep () =
  let path = Filename.temp_file "nyx_orphan" ".bin" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; tmp ])
    (fun () ->
      (match Atomic_io.write_file path (b "v1") with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (* Simulate a writer killed between write and rename: the orphaned
         temp must not shadow the committed file, and the next write
         sweeps it. *)
      let oc = open_out_bin tmp in
      output_string oc "half-written garbage";
      close_out oc;
      (match Atomic_io.read_file path with
      | Ok d ->
        Alcotest.(check string) "orphan never shadows the committed file"
          "v1" (Bytes.to_string d)
      | Error m -> Alcotest.fail m);
      (match Atomic_io.write_file path (b "v2") with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      check_bool "orphan swept by the next write" true
        (not (Sys.file_exists tmp));
      match Atomic_io.read_file path with
      | Ok d -> Alcotest.(check string) "new value committed" "v2" (Bytes.to_string d)
      | Error m -> Alcotest.fail m)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nyx_peer"
    [
      ( "fault-spec",
        [
          Alcotest.test_case "peer spec parsing" `Quick test_parse_spec;
          Alcotest.test_case "plan errors list peer sites" `Quick
            test_plan_spec_errors_list_peer_sites;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "deterministic and total" `Quick
            test_transforms_deterministic_and_total;
          Alcotest.test_case "length-lie bumps inner length" `Quick
            test_length_lie_bumps_inner_len;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "scripts well-formed" `Quick
            test_scripts_well_formed;
          Alcotest.test_case "payload codec" `Quick test_payload_codec;
          Alcotest.test_case "shared, never written" `Quick test_scripts_shared_never_written;
          Alcotest.test_case "traced runs unchanged" `Quick test_traced_runs_unchanged;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "backoff cap saturation" `Quick
            test_backoff_saturation;
          Alcotest.test_case "desync -> quarantine -> partial results" `Quick
            test_desync_quarantine_partial_results;
          Alcotest.test_case "fleet quarantine, peer survivors report" `Slow
            test_fleet_quarantine_then_partial_results;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fault-free golden identity" `Slow
            test_fault_free_golden;
          Alcotest.test_case "same-seed peer campaigns agree" `Slow
            test_peer_campaign_deterministic;
          Alcotest.test_case "fleet identical across domains" `Slow
            test_fleet_domains_identity;
          QCheck_alcotest.to_alcotest prop_peer_kill_resume_bit_identical;
        ] );
      ( "atomic-io",
        [
          Alcotest.test_case "orphan sweep + commit" `Quick
            test_atomic_io_orphan_sweep;
        ] );
    ]
