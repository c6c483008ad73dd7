(* Shared-corpus fleet (ISSUE: corpus-sync epochs): determinism across
   domain counts and batch sizes, the sync-off golden, fleet
   kill+resume, and the observability of sync epochs. *)

open Nyx_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let echo_entry () = Option.get (Nyx_targets.Registry.find "echo")
let ftp_entry () = Option.get (Nyx_targets.Registry.find "lightftp")

let cfg ?(seed = 5) ?(budget_ns = 1_500_000_000) ?(max_execs = 4_000) () =
  {
    Campaign.default_config with
    Campaign.budget_ns;
    max_execs;
    policy = Policy.Balanced;
    seed;
  }

(* The deterministic projection of an outcome: everything except wall
   clock and the worker-count-dependent reporting fields ([domains],
   [makespan_ns] — the makespan model depends on the worker count by
   design, the fuzzing results must not). *)
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

(* --- sync off: the historical independent fleet, byte for byte ----- *)

let test_sync_off_golden () =
  let entry = echo_entry () in
  let config = cfg () in
  let fleet = Fleet.run ~instances:3 ~domains:1 ~config entry in
  (* The independent fleet is definitionally N separate campaigns with
     derived seeds — reproduce it by hand. *)
  let solo =
    List.init 3 (fun i ->
        Campaign.run
          { config with Campaign.seed = config.Campaign.seed + (1000 * i) }
          entry)
  in
  check_int "results" 3 (List.length fleet.Fleet.results);
  List.iter2
    (fun a b ->
      check_bool "fleet instance == solo campaign" true
        (Report.same_deterministic a b))
    fleet.Fleet.results solo;
  check_bool "no union map when sync off" true (fleet.Fleet.union_edges = None);
  check_bool "no sync epochs when sync off" true (fleet.Fleet.sync_epochs = []);
  check_int "work is the summed virtual time"
    (List.fold_left (fun acc r -> acc + r.Report.virtual_ns) 0 solo)
    fleet.Fleet.work_ns;
  check_int "one worker: makespan == work" fleet.Fleet.work_ns
    fleet.Fleet.makespan_ns

(* --- synced fleet: domain-count and batch-size independence --------- *)

let sync_run ?(domains = 1) ?batch ?(sync_import = true) ?(instances = 4)
    ?(sync_ns = 200_000_000) ?profile ?checkpoint config entry =
  Fleet.run ~instances ~domains ?batch ?profile ~sync_ns ~sync_import
    ?checkpoint ~config entry

let test_sync_domains_deterministic () =
  let entry = echo_entry () in
  let config = cfg () in
  let seq = sync_run ~domains:1 config entry in
  let par = sync_run ~domains:4 config entry in
  check_bool "synced fleet: 4 domains == 1 domain" true (same_outcome seq par);
  check_int "reported domains differ" 4 par.Fleet.domains;
  check_bool "sync epochs recorded" true (List.length seq.Fleet.sync_epochs > 0)

let test_sync_batch_deterministic () =
  let entry = echo_entry () in
  let config = cfg () in
  let b1 = sync_run ~domains:4 ~batch:1 config entry in
  let b3 = sync_run ~domains:4 ~batch:3 config entry in
  check_bool "batch=3 == batch=1" true (same_outcome b1 b3);
  (* Batch is a pure submission knob: even the makespan model agrees. *)
  check_int "same makespan" b1.Fleet.makespan_ns b3.Fleet.makespan_ns

let prop_synced_fleet_bit_identical =
  QCheck.Test.make
    ~name:"synced fleet bit-identical across NYX_DOMAINS and batch" ~count:6
    QCheck.(
      triple (int_range 1 1000) (int_range 2 3)
        (oneofl [ 80_000_000; 137_000_000; 300_000_000 ]))
    (fun (seed, instances, sync_ns) ->
      let entry = echo_entry () in
      let config = cfg ~seed ~budget_ns:800_000_000 ~max_execs:1_500 () in
      let a =
        Fleet.run ~instances ~domains:1 ~sync_ns ~config entry
      in
      let b =
        Fleet.run ~instances ~domains:3 ~batch:2 ~sync_ns ~config entry
      in
      same_outcome a b)

(* --- corpus sharing actually happens ------------------------------- *)

let test_sync_shares_coverage () =
  let entry = ftp_entry () in
  let config = cfg ~budget_ns:2_000_000_000 () in
  let o = sync_run ~instances:4 ~sync_ns:150_000_000 config entry in
  let union = Option.get o.Fleet.union_edges in
  let exports =
    List.fold_left (fun a r -> a + r.Fleet.se_exports) 0 o.Fleet.sync_epochs
  in
  let imports =
    List.fold_left (fun a r -> a + r.Fleet.se_imports) 0 o.Fleet.sync_epochs
  in
  check_bool "instances exported" true (exports > 0);
  check_bool "peers imported" true (imports > 0);
  List.iter
    (fun r ->
      check_bool "union covers every instance" true
        (union >= r.Report.final_edges))
    o.Fleet.results;
  (* Rows are cumulative and ordered. *)
  ignore
    (List.fold_left
       (fun prev (r : Fleet.sync_epoch) ->
         check_bool "union monotone" true (r.Fleet.se_union_edges >= prev);
         r.Fleet.se_union_edges)
       0 o.Fleet.sync_epochs)

let test_observer_mode_no_imports () =
  let entry = echo_entry () in
  let config = cfg () in
  let o = sync_run ~sync_import:false config entry in
  List.iter
    (fun (r : Fleet.sync_epoch) ->
      check_int "observer: no imports" 0 r.Fleet.se_imports)
    o.Fleet.sync_epochs;
  check_bool "observer still tracks the union" true
    (o.Fleet.union_edges <> None);
  (* Observer instances never communicate, so each one must match the
     same instance stepped at a different domain count. *)
  let o' = sync_run ~sync_import:false ~domains:4 config entry in
  check_bool "observer deterministic across domains" true (same_outcome o o')

(* --- kill + resume -------------------------------------------------- *)

exception Kill

let test_kill_resume_bit_identical () =
  let entry = echo_entry () in
  let config = cfg () in
  let expected = sync_run ~instances:3 ~sync_ns:150_000_000 config entry in
  List.iter
    (fun kill_at ->
      let path = Filename.temp_file "nyx_fleet_ckpt" ".bin" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let checkpoint =
            Fleet.checkpointing
              ~on_write:(fun ordinal -> if ordinal = kill_at then raise Kill)
              ~path ~every_epochs:2 ()
          in
          match
            sync_run ~instances:3 ~sync_ns:150_000_000 ~checkpoint config entry
          with
          | finished ->
            (* Fewer than kill_at checkpoints fired: nothing was killed;
               the checkpointed run must already match (writes are
               observational). *)
            check_bool "checkpointed run matches" true
              (same_outcome finished expected)
          | exception Kill ->
            (* Resume on a different domain count than the original run:
               results must not care. *)
            let resumed = Fleet.resume ~domains:2 ~path entry in
            check_bool
              (Printf.sprintf "kill at checkpoint %d + resume == straight run"
                 kill_at)
              true
              (same_outcome resumed expected);
            (* The makespan model is domain-count-dependent by design;
               at the original worker count it must be continuous across
               the kill. *)
            let resumed1 = Fleet.resume ~domains:1 ~path entry in
            check_int "resumed makespan matches at equal domains"
              expected.Fleet.makespan_ns resumed1.Fleet.makespan_ns))
    [ 1; 2 ]

let test_resume_rejects_garbage () =
  (* A valid NYXFLT2 header, no epoch rows, a slot count of 2^40 and one
     dead slot: 87 bytes whose slot count must be checked against the
     bytes left before anything is allocated for it. *)
  let huge_slot_count =
    let b = Buffer.create 87 in
    Buffer.add_string b "NYXFLT2";
    List.iter
      (fun v -> Buffer.add_int64_be b (Int64.of_int v))
      [
        150_000_000 (* sync_ns *);
        1 (* sync_import *);
        0 (* epoch *);
        0 (* work_ns *);
        0 (* makespan_ns *);
        0 (* checkpoint ordinal *);
        0 (* union map length *);
        0 (* epoch rows *);
        1 lsl 40 (* slots *);
        0 (* slot 0: dead *);
      ];
    Buffer.contents b
  in
  List.iter
    (fun (what, data) ->
      let path = Filename.temp_file "nyx_fleet_bad" ".bin" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc data;
          close_out oc;
          match Fleet.resume ~path (echo_entry ()) with
          | _ -> Alcotest.fail (what ^ ": resume must reject garbage")
          | exception Invalid_argument _ -> ()))
    [
      ("not a checkpoint", "not a fleet checkpoint");
      ("2^40 slots in 87 bytes", huge_slot_count);
    ]

(* The NYXFLT2 layout, pinned by the file a small fixed synced fleet
   writes (the NYXCKP2 counterpart is in test_resilience): a
   self-consistent format change would still pass kill + resume. The
   component sections' layouts are pinned on a checkpoint that fills
   all of them, by test_resilience's "section golden bytes". *)
let test_checkpoint_golden_bytes () =
  let path = Filename.temp_file "nyx_fleet_golden" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let checkpoint = Fleet.checkpointing ~path ~every_epochs:2 () in
      ignore
        (sync_run ~instances:2 ~sync_ns:150_000_000 ~checkpoint (cfg ())
           (echo_entry ()));
      Alcotest.(check string)
        "NYXFLT2 file digest" "64f5aa11ac0edb03dc0a195d096541b1"
        (Digest.to_hex (Digest.file path)))

let test_checkpoint_requires_sync () =
  let path = Filename.temp_file "nyx_fleet_req" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let checkpoint = Fleet.checkpointing ~path ~every_epochs:1 () in
      match
        Fleet.run ~instances:2 ~domains:1 ~checkpoint ~config:(cfg ())
          (echo_entry ())
      with
      | _ -> Alcotest.fail "checkpoint without sync_ns must be rejected"
      | exception Invalid_argument _ -> ())

(* --- observability -------------------------------------------------- *)

let test_profile_has_corpus_sync_phase () =
  let entry = echo_entry () in
  let config = cfg () in
  let plain = sync_run config entry in
  let profiled = sync_run ~profile:true config entry in
  (* Profiling is observational: identical outcome except that results
     additionally carry a [phase_profile] snapshot. *)
  check_bool "profiling is observational (fleet core)" true
    (core plain = core profiled);
  check_bool "profiling is observational (per instance)" true
    (List.for_all2
       (fun a b ->
         Report.same_deterministic a { b with Report.phase_profile = None })
       plain.Fleet.results profiled.Fleet.results);
  let sync_spans = ref 0 and sync_ns = ref 0 in
  List.iter
    (fun (r : Report.campaign_result) ->
      match r.Report.phase_profile with
      | None -> Alcotest.fail "profiled fleet result lacks a profile"
      | Some snap ->
        check_int "phases sum to the instance's virtual time"
          snap.Nyx_obs.Profile.total_virtual_ns
          (Nyx_obs.Profile.sum_virtual_ns snap);
        List.iter
          (fun (e : Nyx_obs.Profile.entry) ->
            if e.Nyx_obs.Profile.phase = Nyx_obs.Profile.Corpus_sync then begin
              sync_spans := !sync_spans + e.Nyx_obs.Profile.count;
              sync_ns := !sync_ns + e.Nyx_obs.Profile.virtual_ns
            end)
          snap.Nyx_obs.Profile.entries)
    profiled.Fleet.results;
  check_bool "corpus-sync spans recorded" true (!sync_spans > 0);
  check_bool "corpus-sync costs virtual time" true (!sync_ns > 0)

let test_trace_sync_epoch_spans () =
  let entry = echo_entry () in
  let config = cfg () in
  let o, events =
    Nyx_obs.Trace.with_memory_sink (fun () -> sync_run config entry)
  in
  let count ph =
    List.length
      (List.filter
         (fun (e : Nyx_obs.Trace.event) ->
           e.Nyx_obs.Trace.name = "sync-epoch" && e.Nyx_obs.Trace.ph = ph)
         events)
  in
  let epochs = List.length o.Fleet.sync_epochs in
  check_bool "epochs happened" true (epochs > 0);
  check_int "one begin span per epoch" epochs (count `B);
  check_int "one end span per epoch" epochs (count `E);
  (* Barrier stamps are the deterministic epoch boundaries. *)
  List.iter2
    (fun (row : Fleet.sync_epoch) (e : Nyx_obs.Trace.event) ->
      check_int "span stamped at the barrier" row.Fleet.se_at_ns
        e.Nyx_obs.Trace.vns)
    o.Fleet.sync_epochs
    (List.filter
       (fun (e : Nyx_obs.Trace.event) ->
         e.Nyx_obs.Trace.name = "sync-epoch" && e.Nyx_obs.Trace.ph = `B)
       events)

(* An instance's wall time covers only its own calls. A synced fleet on
   one domain steps its instances in turn, so their wall times are
   disjoint slices of the fleet's and cannot sum past it. *)
let test_instance_wall_excludes_peers () =
  let entry = Option.get (Nyx_targets.Registry.find "dnsmasq") in
  let o = sync_run ~domains:1 ~instances:2 ~profile:true (cfg ()) entry in
  check_int "two instances" 2 (List.length o.Fleet.results);
  let sum = List.fold_left (fun acc r -> acc +. r.Report.wall_s) 0.0 o.Fleet.results in
  if sum > o.Fleet.wall_s then
    Alcotest.failf "instance wall_s sum %.6f s exceeds fleet wall_s %.6f s" sum
      o.Fleet.wall_s

let () =
  Alcotest.run "nyx_fleet_sync"
    [
      ( "golden",
        [
          Alcotest.test_case "sync off == independent campaigns" `Quick
            test_sync_off_golden;
          Alcotest.test_case "checkpoint requires sync" `Quick
            test_checkpoint_requires_sync;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "4 domains == 1 domain" `Quick
            test_sync_domains_deterministic;
          Alcotest.test_case "batch sizes agree" `Quick
            test_sync_batch_deterministic;
          QCheck_alcotest.to_alcotest prop_synced_fleet_bit_identical;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "exports reach peers" `Quick
            test_sync_shares_coverage;
          Alcotest.test_case "observer mode" `Quick
            test_observer_mode_no_imports;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill + resume bit-identical" `Quick
            test_kill_resume_bit_identical;
          Alcotest.test_case "rejects garbage" `Quick
            test_resume_rejects_garbage;
          Alcotest.test_case "golden bytes" `Quick test_checkpoint_golden_bytes;
        ] );
      ( "observability",
        [
          Alcotest.test_case "corpus-sync profile phase" `Quick
            test_profile_has_corpus_sync_phase;
          Alcotest.test_case "sync-epoch trace spans" `Quick
            test_trace_sync_epoch_spans;
          Alcotest.test_case "instance wall excludes peers" `Quick
            test_instance_wall_excludes_peers;
        ] );
    ]
