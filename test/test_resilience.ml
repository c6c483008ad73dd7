(* nyx_resilience: deterministic fault injection, supervised fleets and
   crash-safe checkpoint/resume (the ISSUE's contract tests). *)

open Nyx_resilience
open Nyx_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let b = Bytes.of_string

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.fail ("expected Ok, got Error: " ^ m)

let echo_entry () = Option.get (Nyx_targets.Registry.find "echo")

let small_config =
  {
    Campaign.default_config with
    Campaign.budget_ns = 2_000_000_000;
    max_execs = 2_000;
    policy = Policy.Aggressive;
    seed = 7;
  }

(* ------------------------------------------------------------------ *)
(* Fault sites and spec parsing                                        *)

let test_site_names_roundtrip () =
  check_int "eleven sites" 11 Fault.num_sites;
  check_int "six peer sites" 6 (List.length Fault.peer_sites);
  List.iter
    (fun s -> check_bool "peer site classified" true (Fault.is_peer_site s))
    Fault.peer_sites;
  List.iteri
    (fun i site ->
      check_int "dense index" i (Fault.site_index site);
      match Fault.site_of_name (Fault.site_name site) with
      | Some s -> check_bool "name roundtrip" true (s = site)
      | None -> Alcotest.fail "site name did not round-trip")
    Fault.all_sites;
  check_bool "unknown name" true (Fault.site_of_name "bogus" = None)

let test_spec_parsing () =
  let sp = ok (Plan.parse_spec "snap-corrupt:0.5,wedge:0.125") in
  check_int "two items" 2 (List.length sp);
  check_bool "snap rate" true (List.assoc Fault.Snap_corrupt sp = 0.5);
  check_bool "wedge rate" true (List.assoc Fault.Guest_wedge sp = 0.125);
  let all = ok (Plan.parse_spec "all:0.25") in
  check_int "all expands" Fault.num_sites (List.length all);
  List.iter (fun (_, r) -> check_bool "all rate" true (r = 0.25)) all;
  let is_error s =
    match Plan.parse_spec s with Error _ -> true | Ok _ -> false
  in
  check_bool "unknown site" true (is_error "bogus:0.1");
  check_bool "rate > 1" true (is_error "wedge:1.5");
  check_bool "rate not a float" true (is_error "wedge:x");
  check_bool "missing colon" true (is_error "wedge");
  check_bool "empty spec" true (is_error "")

let test_spec_canonical_roundtrip () =
  let sp = ok (Plan.parse_spec "restore-fail:0.05,dirty-loss:0.01") in
  let s = Plan.spec_to_string sp in
  check_bool "roundtrip" true (ok (Plan.parse_spec s) = sp)

let test_of_env () =
  Unix.putenv "NYX_FAULTS" "wedge:0.5";
  (match Plan.of_env () with
  | Some [ (Fault.Guest_wedge, r) ] -> check_bool "env rate" true (r = 0.5)
  | _ -> Alcotest.fail "NYX_FAULTS not parsed");
  Unix.putenv "NYX_FAULTS" "nonsense";
  (try
     ignore (Plan.of_env ());
     Alcotest.fail "malformed NYX_FAULTS must raise"
   with Invalid_argument _ -> ());
  Unix.putenv "NYX_FAULTS" "";
  check_bool "unset" true (Plan.of_env () = None)

(* ------------------------------------------------------------------ *)
(* Plan determinism                                                    *)

let fire_sequence plan n =
  List.init n (fun i ->
      List.map
        (fun site ->
          match Plan.fire plan site ~vns:(i * 10) with
          | Some f -> Some (f.Fault.site, f.Fault.seq, f.Fault.site_seq, f.Fault.vns)
          | None -> None)
        Fault.all_sites)

let test_plan_deterministic () =
  let sp = ok (Plan.parse_spec "all:0.3") in
  let p1 = Plan.create sp (Nyx_sim.Rng.create 42) in
  let p2 = Plan.create sp (Nyx_sim.Rng.create 42) in
  check_bool "identical schedules" true (fire_sequence p1 200 = fire_sequence p2 200);
  let t = Plan.totals p1 in
  check_bool "some fired" true (t.Plan.injected > 0);
  check_bool "totals match" true (Plan.totals p1 = Plan.totals p2)

let test_zero_rate_draws_nothing () =
  (* A spec naming only some sites must produce the same schedule for
     those sites whatever consultations the zero-rate sites see. *)
  let sp = ok (Plan.parse_spec "wedge:0.5") in
  let p1 = Plan.create sp (Nyx_sim.Rng.create 9) in
  let p2 = Plan.create sp (Nyx_sim.Rng.create 9) in
  let seq1 =
    List.init 100 (fun i -> Plan.fire p1 Fault.Guest_wedge ~vns:i <> None)
  in
  let seq2 =
    List.init 100 (fun i ->
        (* interleave zero-rate consultations *)
        ignore (Plan.fire p2 Fault.Snap_corrupt ~vns:i);
        ignore (Plan.fire p2 Fault.Trace_sink ~vns:i);
        Plan.fire p2 Fault.Guest_wedge ~vns:i <> None)
  in
  check_bool "zero-rate sites draw nothing" true (seq1 = seq2)

let test_suppressed_no_draw () =
  let sp = ok (Plan.parse_spec "wedge:1.0") in
  let p = Plan.create sp (Nyx_sim.Rng.create 1) in
  Plan.suppressed p (fun () ->
      check_bool "no fire while suppressed" true
        (Plan.fire p Fault.Guest_wedge ~vns:0 = None));
  (* The suppressed consultation drew nothing: the next fire is the
     plan's first, seq 0. *)
  match Plan.fire p Fault.Guest_wedge ~vns:5 with
  | Some f ->
    check_int "seq unaffected" 0 f.Fault.seq;
    check_int "recovered count" 0 (Plan.totals p).Plan.recovered;
    Plan.record_recovered p f;
    check_int "recovered counted" 1 (Plan.totals p).Plan.recovered
  | None -> Alcotest.fail "rate-1.0 site must fire"

let test_plan_state_roundtrip () =
  let sp = ok (Plan.parse_spec "all:0.4") in
  let p1 = Plan.create sp (Nyx_sim.Rng.create 3) in
  ignore (fire_sequence p1 50);
  let st = Plan.state p1 in
  let p2 = Plan.create sp (Nyx_sim.Rng.create 0) in
  Plan.restore_state p2 st;
  check_bool "continuation identical" true
    (fire_sequence p1 50 = fire_sequence p2 50);
  check_bool "totals equal" true (Plan.totals p1 = Plan.totals p2)

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)

let test_backoff () =
  let d attempt = Backoff.delay_ns ~base_ns:1_000 ~cap_ns:60_000 ~attempt in
  check_int "attempt 0" 1_000 (d 0);
  check_int "attempt 1" 2_000 (d 1);
  check_int "attempt 5" 32_000 (d 5);
  check_int "attempt 6 capped" 60_000 (d 6);
  check_int "huge attempt stays capped" 60_000 (d 200);
  check_int "total of 3" 7_000
    (Backoff.total_ns ~base_ns:1_000 ~cap_ns:60_000 ~attempts:3);
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "bad base" true
    (raises (fun () -> Backoff.delay_ns ~base_ns:0 ~cap_ns:10 ~attempt:0));
  check_bool "cap below base" true
    (raises (fun () -> Backoff.delay_ns ~base_ns:10 ~cap_ns:5 ~attempt:0));
  check_bool "negative attempt" true
    (raises (fun () -> Backoff.delay_ns ~base_ns:10 ~cap_ns:20 ~attempt:(-1)))

(* ------------------------------------------------------------------ *)
(* Atomic_io                                                           *)

let test_atomic_io () =
  let path = Filename.temp_file "nyx_atomic" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match Atomic_io.write_file path (b "first") with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (match Atomic_io.write_file path (b "second version") with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (match Atomic_io.read_file path with
      | Ok data -> Alcotest.(check string) "latest wins" "second version"
          (Bytes.to_string data)
      | Error m -> Alcotest.fail m);
      check_bool "no tmp litter" true
        (Array.for_all
           (fun f -> not (String.length f > 4 && Filename.check_suffix f ".tmp"))
           (Sys.readdir (Filename.dirname path))));
  check_bool "missing file is Error" true
    (match Atomic_io.read_file "/nonexistent/nyx" with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Engine: latent faults and invalidation ordering                     *)

let mk_faulted_engine spec_str =
  let clock = Nyx_sim.Clock.create () in
  let vm =
    Nyx_vm.Vm.create
      ~config:{ Nyx_vm.Vm.mem_pages = 128; device_size = 64; disk_sectors = 8 }
      clock
  in
  Nyx_vm.Memory.write vm.Nyx_vm.Vm.mem 0 (b "root-image");
  let eng = Nyx_snapshot.Engine.create vm (Nyx_snapshot.Aux_state.create ()) in
  let plan = Plan.create (ok (Plan.parse_spec spec_str)) (Nyx_sim.Rng.create 11) in
  Nyx_vm.Vm.arm_faults vm plan;
  (eng, vm, plan)

let mem_head vm = Bytes.to_string (Nyx_vm.Memory.read vm.Nyx_vm.Vm.mem 0 10)

let test_restore_fail_ordering () =
  let eng, vm, plan = mk_faulted_engine "restore-fail:1.0" in
  Nyx_snapshot.Engine.take_incremental eng;
  check_bool "no latent fault at take" true (Nyx_snapshot.Engine.pending eng = []);
  Nyx_vm.Memory.write vm.Nyx_vm.Vm.mem 0 (b "suffix-dmg");
  (* Detection precedes any engine mutation: after the raise the engine is
     still active with the fault pending, and guest memory untouched. *)
  (match Nyx_snapshot.Engine.restore eng with
  | () -> Alcotest.fail "restore must raise under restore-fail:1.0"
  | exception Fault.Injected f ->
    check_bool "site" true (f.Fault.site = Fault.Restore_fail));
  check_bool "still active" true (Nyx_snapshot.Engine.has_incremental eng);
  check_int "fault pending" 1 (List.length (Nyx_snapshot.Engine.pending eng));
  Alcotest.(check string) "memory untouched by failed restore" "suffix-dmg"
    (mem_head vm);
  (* restore_root is the recovery: discards the incremental, retires the
     pending fault as recovered, and leaves a consistent root-mode engine. *)
  Nyx_snapshot.Engine.restore_root eng;
  check_bool "pending retired" true (Nyx_snapshot.Engine.pending eng = []);
  check_bool "back to root mode" true (not (Nyx_snapshot.Engine.has_incremental eng));
  Alcotest.(check string) "memory back at root" "root-image" (mem_head vm);
  let t = Plan.totals plan in
  check_int "injected" 1 t.Plan.injected;
  check_int "recovered" 1 t.Plan.recovered;
  (* The engine must be reusable after recovery. *)
  Nyx_snapshot.Engine.take_incremental eng;
  check_bool "fresh incremental also faulted on restore" true
    (match Nyx_snapshot.Engine.restore eng with
    | exception Fault.Injected _ -> true
    | () -> false);
  Nyx_snapshot.Engine.restore_root eng

let test_snap_corrupt_latent () =
  let eng, vm, plan = mk_faulted_engine "snap-corrupt:1.0" in
  Nyx_snapshot.Engine.take_incremental eng;
  (* Corruption at creation is latent: recorded on the snapshot, detected
     at the next restore. *)
  check_bool "latent fault recorded" true
    (match Nyx_snapshot.Engine.pending eng with
    | [ f ] -> f.Fault.site = Fault.Snap_corrupt
    | _ -> false);
  Nyx_vm.Memory.write vm.Nyx_vm.Vm.mem 0 (b "scribbled!");
  (match Nyx_snapshot.Engine.restore eng with
  | () -> Alcotest.fail "restoring a corrupt incremental must raise"
  | exception Fault.Injected f ->
    check_bool "latent site detected" true (f.Fault.site = Fault.Snap_corrupt));
  Nyx_snapshot.Engine.restore_root eng;
  Alcotest.(check string) "recreate-on-demand restores root" "root-image"
    (mem_head vm);
  check_bool "recovered == injected" true
    (let t = Plan.totals plan in
     t.Plan.injected = t.Plan.recovered && t.Plan.injected >= 1)

let test_dirty_loss_latent () =
  let eng, _vm, plan = mk_faulted_engine "dirty-loss:1.0" in
  Nyx_snapshot.Engine.take_incremental eng;
  check_bool "dirty loss recorded at take" true
    (List.exists
       (fun f -> f.Fault.site = Fault.Dirty_loss)
       (Nyx_snapshot.Engine.pending eng));
  (match Nyx_snapshot.Engine.restore eng with
  | () -> Alcotest.fail "incomplete incremental must fail its restore"
  | exception Fault.Injected _ -> ());
  Nyx_snapshot.Engine.restore_root eng;
  check_bool "retired" true
    (let t = Plan.totals plan in
     t.Plan.injected = t.Plan.recovered)

(* ------------------------------------------------------------------ *)
(* Aux_state.restore rejection paths                                   *)

let handler name cell =
  {
    Nyx_snapshot.Aux_state.name;
    save = (fun () -> b (string_of_int !cell));
    load = (fun bts -> cell := int_of_string (Bytes.to_string bts));
  }

let test_aux_restore_rejections () =
  let clock = Nyx_sim.Clock.create () in
  let cell = ref 5 in
  let reg = Nyx_snapshot.Aux_state.create () in
  Nyx_snapshot.Aux_state.register reg (handler "a" cell);
  let cap = Nyx_snapshot.Aux_state.capture reg clock in
  let expect_reject reg' =
    Alcotest.check_raises "handler set changed"
      (Invalid_argument "Aux_state.restore: handler set changed since capture")
      (fun () -> Nyx_snapshot.Aux_state.restore reg' clock cap)
  in
  (* Length mismatch: a handler registered after the capture. *)
  let grown = Nyx_snapshot.Aux_state.create () in
  Nyx_snapshot.Aux_state.register grown (handler "a" cell);
  Nyx_snapshot.Aux_state.register grown (handler "late" (ref 0));
  expect_reject grown;
  (* Name mismatch at equal length. *)
  let renamed = Nyx_snapshot.Aux_state.create () in
  Nyx_snapshot.Aux_state.register renamed (handler "b" cell);
  expect_reject renamed;
  (* And the matching set still restores. *)
  cell := 99;
  Nyx_snapshot.Aux_state.restore reg clock cap;
  check_int "restored" 5 !cell

(* ------------------------------------------------------------------ *)
(* Trace sink hardening                                                *)

let test_trace_sink_failure_disables () =
  let path = Filename.temp_file "nyx_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Nyx_obs.Trace.with_file_sink path (fun () ->
          check_bool "sink armed" true (Nyx_obs.Trace.on ());
          Nyx_obs.Trace.instant ~vns:1 "before" [];
          Nyx_obs.Trace.flush ();
          Nyx_obs.Trace.inject_flush_failure ();
          Nyx_obs.Trace.instant ~vns:2 "lost" [];
          (* The failing flush must not raise... *)
          Nyx_obs.Trace.flush ();
          (* ...and the sink disables itself: event sites see tracing off. *)
          check_bool "tracing disabled after sink failure" true
            (not (Nyx_obs.Trace.on ()));
          (* Subsequent flushes are no-ops, not repeated warnings. *)
          Nyx_obs.Trace.flush ());
      (* Events written before the failure survive on disk. *)
      let ic = open_in path in
      let first = input_line ic in
      close_in ic;
      check_bool "pre-failure event persisted" true
        (String.length first > 0
        && String.index_opt first '{' = Some 0))

let test_trace_sink_normal_writes () =
  let path = Filename.temp_file "nyx_trace_ok" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Nyx_obs.Trace.with_file_sink path (fun () ->
          Nyx_obs.Trace.instant ~vns:7 "healthy" [ ("k", Nyx_obs.Trace.Int 1) ];
          Nyx_obs.Trace.flush ());
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      check_bool "event written" true
        (let re_has s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         re_has line "healthy"))

(* ------------------------------------------------------------------ *)
(* Pool error path: drain-and-cancel                                   *)

exception Boom of int

let test_pool_cancels_after_failure () =
  let ran = Array.make 12 false in
  let tasks = Array.init 12 (fun i -> i) in
  (match
     Nyx_parallel.Pool.map ~domains:1
       (fun i ->
         ran.(i) <- true;
         if i = 5 then raise (Boom i);
         i)
       tasks
   with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Nyx_parallel.Pool.Task_error { index; exn } ->
    check_int "failing index" 5 index;
    check_bool "original exception" true (exn = Boom 5));
  (* Sequentially, nothing after the failure runs: the queue is drained. *)
  for i = 0 to 4 do
    check_bool "ran before failure" true ran.(i)
  done;
  for i = 6 to 11 do
    check_bool "cancelled after failure" false ran.(i)
  done

let test_pool_cancelled_never_escapes () =
  (* Parallel: whatever interleaving happens, the reported failure is a
     real one (never the Cancelled placeholder) and at the lowest index. *)
  for _rep = 1 to 5 do
    match
      Nyx_parallel.Pool.map ~domains:4
        (fun i -> if i >= 3 then raise (Boom i) else i)
        (Array.init 16 (fun i -> i))
    with
    | _ -> Alcotest.fail "expected Task_error"
    | exception Nyx_parallel.Pool.Task_error { index; exn } ->
      check_int "lowest real failure" 3 index;
      check_bool "payload is the real exception" true (exn = Boom 3)
  done

(* ------------------------------------------------------------------ *)
(* Hang budget (NYX_HANG_BUDGET)                                       *)

let test_hang_budget_default () =
  Nyx_targets.Target.set_hang_budget_override None;
  (* The suite does not set NYX_HANG_BUDGET; the default applies. *)
  check_int "default" 4096 (Nyx_targets.Target.hang_budget ())

let test_hang_report_carries_budget () =
  Nyx_targets.Target.set_hang_budget_override (Some 1);
  Fun.protect
    ~finally:(fun () -> Nyx_targets.Target.set_hang_budget_override None)
    (fun () ->
      check_int "override wins" 1 (Nyx_targets.Target.hang_budget ());
      let entry = echo_entry () in
      let clock = Nyx_sim.Clock.create () in
      let vm = Nyx_vm.Vm.create clock in
      let net = Nyx_netemu.Net.create clock in
      let ctx = Nyx_targets.Ctx.of_vm ~layout_cookie:1 ~net vm in
      let rt = Nyx_targets.Target.boot entry.Nyx_targets.Registry.target ctx in
      match
        (* An accept plus its banner exceeds a one-iteration budget. *)
        ignore
          (Nyx_netemu.Net.connect_peer net
             ~port:entry.Nyx_targets.Registry.target.Nyx_targets.Target.info
                     .Nyx_targets.Target.port);
        Nyx_targets.Target.pump rt
      with
      | () -> Alcotest.fail "expected a hang with budget 1"
      | exception Nyx_targets.Ctx.Crash { kind; detail } ->
        Alcotest.(check string) "kind" "hang" kind;
        let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        check_bool "detail names the budget used" true
          (contains detail "within 1 iterations (hang budget)"))

(* ------------------------------------------------------------------ *)
(* Faulted campaigns                                                   *)

let faults_spec = ok (Plan.parse_spec "all:0.02")

let test_campaign_no_faults_no_block () =
  let r = Campaign.run small_config (echo_entry ()) in
  check_bool "resilience absent when faults off" true (r.Report.resilience = None)

let test_campaign_faults_recovered_and_deterministic () =
  let entry = echo_entry () in
  let r1 = Campaign.run ~faults:faults_spec small_config entry in
  let r2 = Campaign.run ~faults:faults_spec small_config entry in
  (match r1.Report.resilience with
  | None -> Alcotest.fail "faulted campaign must report resilience"
  | Some res ->
    check_bool "faults actually fired" true (res.Report.faults_injected > 0);
    check_int "all recovered" res.Report.faults_injected
      res.Report.faults_recovered;
    check_int "none aborted" 0 res.Report.faults_aborted);
  check_bool "same-seed faulted runs identical" true
    (Report.same_deterministic r1 r2)

(* ------------------------------------------------------------------ *)
(* Fleet supervisor                                                    *)

let tiny_config =
  {
    Campaign.default_config with
    Campaign.budget_ns = 300_000_000;
    max_execs = 120;
    policy = Policy.Balanced;
    seed = 3;
  }

let test_fleet_quarantines_deterministic_failure () =
  let entry = echo_entry () in
  let calls = ref 0 in
  let fleet =
    Fleet.run ~instances:3 ~domains:1 ~max_restarts:2
      ~run_instance:(fun cfg ->
        incr calls;
        if cfg.Campaign.seed = tiny_config.Campaign.seed + 1000 then
          failwith "always dies"
        else Campaign.run cfg entry)
      ~config:tiny_config entry
  in
  check_int "instances" 3 fleet.Fleet.instances;
  check_int "quarantined" 1 fleet.Fleet.quarantined;
  check_int "survivors" 2 (List.length fleet.Fleet.results);
  check_int "retry budget honoured" 2 fleet.Fleet.restarts;
  (* 2 healthy + 3 attempts (initial + 2 restarts) for the bad one. *)
  check_int "attempt count" 5 !calls;
  check_bool "healthy instances carry no restart block" true
    (List.for_all (fun r -> r.Report.resilience = None) fleet.Fleet.results)

let test_fleet_restart_recovers_transient_failure () =
  let entry = echo_entry () in
  let attempts = Hashtbl.create 4 in
  let fleet =
    Fleet.run ~instances:3 ~domains:1 ~max_restarts:3
      ~run_instance:(fun cfg ->
        let seed = cfg.Campaign.seed in
        let n = Option.value ~default:0 (Hashtbl.find_opt attempts seed) in
        Hashtbl.replace attempts seed (n + 1);
        if seed = tiny_config.Campaign.seed + 2000 && n = 0 then
          failwith "transient"
        else Campaign.run cfg entry)
      ~config:tiny_config entry
  in
  check_int "no quarantine" 0 fleet.Fleet.quarantined;
  check_int "all survived" 3 (List.length fleet.Fleet.results);
  check_int "one restart" 1 fleet.Fleet.restarts;
  let restarted = List.nth fleet.Fleet.results 2 in
  match restarted.Report.resilience with
  | Some res ->
    check_int "its restarts" 1 res.Report.restarts;
    check_int "backoff charged" 1_000_000_000 res.Report.backoff_ns;
    check_bool "not quarantined" true (not res.Report.quarantined)
  | None -> Alcotest.fail "restarted survivor must carry a resilience block"

let test_fleet_all_quarantined_partial_outcome () =
  let entry = echo_entry () in
  let fleet =
    Fleet.run ~instances:2 ~domains:1 ~max_restarts:1
      ~run_instance:(fun _ -> failwith "everything is broken")
      ~config:tiny_config entry
  in
  check_int "all quarantined" 2 fleet.Fleet.quarantined;
  check_bool "no survivors" true (fleet.Fleet.results = []);
  check_int "no solves" 0 fleet.Fleet.solves;
  check_bool "no first solve" true (fleet.Fleet.first_solve_ns = None)

(* ------------------------------------------------------------------ *)
(* Checkpoint codec                                                    *)

let sample_checkpoint () =
  let entry = echo_entry () in
  let spec = Campaign.net_spec () in
  let program = List.hd (Campaign.make_seeds entry spec) in
  {
    Checkpoint.c_policy = "nyx-net-aggressive";
    c_budget_ns = 123;
    c_max_execs = 456;
    c_seed = 7;
    c_asan = true;
    c_stop_on_solve = false;
    c_trim = true;
    c_sample_interval_ns = 1000;
    c_target = "echo";
    c_clock_ns = 99;
    c_execs = 12;
    c_last_sample = 98;
    c_solved_ns = Some 55;
    c_sched_rng = 0x1234_5678_9abc_def0L;
    c_mut_rng = -1L;
    c_policy_state =
      { Policy.st_rng = 17L; st_cursor = [ (1, 2); (3, 4) ]; st_dyn = []; st_probes = 0;
        st_probe_hashes = 0; st_probe_skipped = 0 };
    c_corpus =
      [
        {
          Checkpoint.ce_program = Nyx_spec.Program.serialize program;
          ce_exec_ns = 10;
          ce_discovered_ns = 20;
          ce_state_code = 3;
        };
      ];
    c_virgin = Bytes.make 64 '\xff';
    c_timeline = [ (0, Int64.bits_of_float 1.0); (5, Int64.bits_of_float 2.5) ];
    c_crashes =
      [
        {
          Checkpoint.cr_kind = "assertion";
          cr_detail = "detail text";
          cr_found_ns = 44;
          cr_found_exec = 9;
          cr_input = b "\x00\x01input";
        };
      ];
    c_engine =
      {
        Nyx_snapshot.Engine.p_mirror = [ 1; 5; 9 ];
        p_creates_since_remirror = 2;
        p_stats =
          {
            Nyx_snapshot.Engine.root_restores = 1;
            incremental_creates = 2;
            incremental_restores = 3;
            pages_restored = 4;
            remirrors = 5;
          };
        p_dirty = [ 9; 5 ];
      };
    c_dict = [ b "GET"; Bytes.empty; b "\r\n" ];
    c_max_ops = 24;
    c_exec_timeline = [ (3, Int64.bits_of_float 1.0); (8, Int64.bits_of_float 2.5) ];
    c_mut_engine = "typed";
    c_mut_weights = [ ("splice", Int64.bits_of_float 2.0) ];
    c_mut_state =
      [
        {
          Nyx_spec.Mutation_engine.ms_name = "havoc";
          ms_attempts = 10;
          ms_rejected = 0;
          ms_accepts = 3;
          ms_credit = Int64.bits_of_float 0.25;
        };
        {
          Nyx_spec.Mutation_engine.ms_name = "splice";
          ms_attempts = 4;
          ms_rejected = 2;
          ms_accepts = 1;
          ms_credit = Int64.bits_of_float 0.05;
        };
      ];
    c_faults =
      Some
        ( "wedge:0.5",
          {
            Plan.st_rng = 21L;
            st_seq = 4;
            st_injected = Array.make Fault.num_sites 1;
            st_recovered = Array.make Fault.num_sites 1;
          } );
    c_profile = None;
    c_peer =
      Some
        {
          Nyx_peer.Peer_driver.pd_actions = 42;
          pd_fired = Array.of_list (List.map (fun _ -> 2) Fault.peer_sites);
          pd_desyncs = 3;
          pd_restarts = 2;
          pd_quarantines = 1;
          pd_backoff_ns = 7_000_000;
        };
  }

let test_checkpoint_roundtrip () =
  let t = sample_checkpoint () in
  check_bool "encode/decode identity" true (Checkpoint.decode (Checkpoint.encode t) = t);
  let path = Filename.temp_file "nyx_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match Checkpoint.save path t with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      match Checkpoint.load path with
      | Ok t' -> check_bool "file roundtrip" true (t' = t)
      | Error m -> Alcotest.fail m)

(* The NYXCKP1 layout, pinned: the round-trip tests alone would pass a
   self-consistent format change that leaves every checkpoint already on
   disk unreadable. A deliberate format change bumps the magic and this
   digest together. *)
let test_checkpoint_golden_bytes () =
  Alcotest.(check string)
    "NYXCKP1 encoding digest" "d9883be026aea7bfa11687972e03b4dd"
    (Digest.to_hex (Digest.bytes (Checkpoint.encode (sample_checkpoint ()))))

let test_checkpoint_rejects_corrupt () =
  let t = sample_checkpoint () in
  let enc = Checkpoint.encode t in
  let corrupt data =
    match Checkpoint.decode data with
    | exception Checkpoint.Corrupt _ -> true
    | _ -> false
  in
  check_bool "truncated" true (corrupt (Bytes.sub enc 0 (Bytes.length enc / 2)));
  check_bool "trailing garbage" true (corrupt (Bytes.cat enc (b "x")));
  check_bool "bad magic" true
    (corrupt
       (let d = Bytes.copy enc in
        Bytes.set d 0 'X';
        d));
  check_bool "empty" true (corrupt Bytes.empty)

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume determinism                                       *)

exception Killed

let ck_config =
  {
    Campaign.default_config with
    Campaign.budget_ns = 2_000_000_000;
    max_execs = 2_000;
    policy = Policy.Aggressive;
    seed = 7;
  }

let run_with_kill ~faults ~kill_at path =
  (* Returns [None] when the campaign was killed at checkpoint [kill_at]
     (the file holds that checkpoint), [Some result] when it finished
     before writing that many checkpoints. *)
  let ck =
    Campaign.checkpointing ~path ~interval_ns:100_000_000
      ~on_write:(fun ordinal -> if ordinal = kill_at then raise Killed)
      ()
  in
  match Campaign.run ?faults ~checkpoint:ck ck_config (echo_entry ()) with
  | r -> Some r
  | exception Killed -> None

let baseline ~faults = Campaign.run ?faults ck_config (echo_entry ())

let test_checkpointing_is_observational () =
  let entry = echo_entry () in
  let path = Filename.temp_file "nyx_ckpt_obs" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let plain = Campaign.run ck_config entry in
      let ck = Campaign.checkpointing ~path ~interval_ns:100_000_000 () in
      let checkpointed = Campaign.run ~checkpoint:ck ck_config entry in
      check_bool "checkpoint writes change nothing" true
        (Report.same_deterministic plain checkpointed);
      check_bool "checkpoint file written" true (Sys.file_exists path))

let test_resume_target_mismatch () =
  let path = Filename.temp_file "nyx_ckpt_mm" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match run_with_kill ~faults:None ~kill_at:1 path with
      | None -> ()
      | Some _ -> Alcotest.fail "expected a kill at the first checkpoint");
      let ckpt = ok (Checkpoint.load path) in
      let other = Option.get (Nyx_targets.Registry.find "lightftp") in
      match Campaign.resume ckpt other with
      | _ -> Alcotest.fail "resume must reject a foreign checkpoint"
      | exception Invalid_argument _ -> ())

(* domain-safe: test-only lazy baseline, forced on a single domain *)
let prop_kill_resume_bit_identical =
  (* The ISSUE's determinism contract: kill at ANY checkpoint + resume ==
     the uninterrupted run, bit-for-bit (modulo wall clock). Exercised
     with and without an armed fault plan. *)
  let base_plain = lazy (baseline ~faults:None) in
  let base_faulted = lazy (baseline ~faults:(Some faults_spec)) in
  QCheck.Test.make ~name:"kill at any checkpoint + resume == straight run"
    ~count:8
    QCheck.(pair (int_range 1 10) bool)
    (fun (kill_at, with_faults) ->
      let faults = if with_faults then Some faults_spec else None in
      let expected =
        Lazy.force (if with_faults then base_faulted else base_plain)
      in
      let path = Filename.temp_file "nyx_ckpt_prop" ".bin" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          match run_with_kill ~faults ~kill_at path with
          | Some finished ->
            (* Fewer than kill_at checkpoints fired: nothing was killed,
               the straight (checkpointed) run must already match. *)
            Report.same_deterministic finished expected
          | None ->
            let ckpt = ok (Checkpoint.load path) in
            let resumed = Campaign.resume ckpt (echo_entry ()) in
            Report.same_deterministic resumed expected))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nyx_resilience"
    [
      ( "plan",
        [
          Alcotest.test_case "site names" `Quick test_site_names_roundtrip;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "spec canonical roundtrip" `Quick
            test_spec_canonical_roundtrip;
          Alcotest.test_case "NYX_FAULTS" `Quick test_of_env;
          Alcotest.test_case "deterministic schedule" `Quick
            test_plan_deterministic;
          Alcotest.test_case "zero-rate sites draw nothing" `Quick
            test_zero_rate_draws_nothing;
          Alcotest.test_case "suppressed recovery draws nothing" `Quick
            test_suppressed_no_draw;
          Alcotest.test_case "state roundtrip" `Quick test_plan_state_roundtrip;
        ] );
      ( "backoff-io",
        [
          Alcotest.test_case "capped exponential backoff" `Quick test_backoff;
          Alcotest.test_case "atomic file io" `Quick test_atomic_io;
        ] );
      ( "engine-faults",
        [
          Alcotest.test_case "restore failure ordering" `Quick
            test_restore_fail_ordering;
          Alcotest.test_case "latent snapshot corruption" `Quick
            test_snap_corrupt_latent;
          Alcotest.test_case "latent dirty-page loss" `Quick
            test_dirty_loss_latent;
          Alcotest.test_case "aux restore rejections" `Quick
            test_aux_restore_rejections;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "trace sink failure disables tracing" `Quick
            test_trace_sink_failure_disables;
          Alcotest.test_case "trace sink normal writes" `Quick
            test_trace_sink_normal_writes;
          Alcotest.test_case "pool drains after failure" `Quick
            test_pool_cancels_after_failure;
          Alcotest.test_case "pool reports lowest real failure" `Quick
            test_pool_cancelled_never_escapes;
          Alcotest.test_case "hang budget default" `Quick
            test_hang_budget_default;
          Alcotest.test_case "hang report carries budget" `Quick
            test_hang_report_carries_budget;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "no faults, no resilience block" `Quick
            test_campaign_no_faults_no_block;
          Alcotest.test_case "faults recovered, deterministic" `Slow
            test_campaign_faults_recovered_and_deterministic;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "quarantines deterministic failure" `Quick
            test_fleet_quarantines_deterministic_failure;
          Alcotest.test_case "restart recovers transient failure" `Quick
            test_fleet_restart_recovers_transient_failure;
          Alcotest.test_case "partial outcome when all die" `Quick
            test_fleet_all_quarantined_partial_outcome;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "golden bytes" `Quick test_checkpoint_golden_bytes;
          Alcotest.test_case "rejects corrupt input" `Quick
            test_checkpoint_rejects_corrupt;
          Alcotest.test_case "checkpointing is observational" `Slow
            test_checkpointing_is_observational;
          Alcotest.test_case "resume rejects foreign target" `Quick
            test_resume_target_mismatch;
          QCheck_alcotest.to_alcotest prop_kill_resume_bit_identical;
        ] );
    ]
