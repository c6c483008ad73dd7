open Nyx_core

let check_int = Alcotest.(check int)

(* Coverage *)

let test_coverage_basics () =
  let c = Nyx_targets.Coverage.create () in
  check_int "empty" 0 (Nyx_targets.Coverage.edge_count c);
  Nyx_targets.Coverage.hit c 1;
  Nyx_targets.Coverage.hit c 2;
  Alcotest.(check bool) "edges recorded" true (Nyx_targets.Coverage.edge_count c >= 1);
  Nyx_targets.Coverage.reset c;
  check_int "reset" 0 (Nyx_targets.Coverage.edge_count c)

let test_coverage_edges_are_paths () =
  (* AFL-style: A->B and B->A are different edges. *)
  let c1 = Nyx_targets.Coverage.create () in
  Nyx_targets.Coverage.hit c1 10;
  Nyx_targets.Coverage.hit c1 20;
  let cells1 = ref [] in
  Nyx_targets.Coverage.iter_hits c1 (fun i _ -> cells1 := i :: !cells1);
  let c2 = Nyx_targets.Coverage.create () in
  Nyx_targets.Coverage.hit c2 20;
  Nyx_targets.Coverage.hit c2 10;
  let cells2 = ref [] in
  Nyx_targets.Coverage.iter_hits c2 (fun i _ -> cells2 := i :: !cells2);
  Alcotest.(check bool) "order-sensitive" true
    (List.sort compare !cells1 <> List.sort compare !cells2)

let test_coverage_save_restore () =
  let c = Nyx_targets.Coverage.create () in
  Nyx_targets.Coverage.hit c 1;
  let cp = Nyx_targets.Coverage.save c in
  Nyx_targets.Coverage.hit c 2;
  Nyx_targets.Coverage.hit c 3;
  let grown = Nyx_targets.Coverage.edge_count c in
  Nyx_targets.Coverage.restore c cp;
  Alcotest.(check bool) "rolled back" true (Nyx_targets.Coverage.edge_count c < grown)

let test_cumulative_merge () =
  let cum = Nyx_targets.Coverage.Cumulative.create () in
  let c = Nyx_targets.Coverage.create () in
  Nyx_targets.Coverage.hit c 1;
  Alcotest.(check bool) "first merge novel" true
    (Nyx_targets.Coverage.Cumulative.merge cum c);
  Alcotest.(check bool) "second merge not novel" false
    (Nyx_targets.Coverage.Cumulative.merge cum c);
  (* Higher hit-count buckets count as novelty, like AFL. *)
  for _ = 1 to 10 do
    Nyx_targets.Coverage.hit c 1
  done;
  Alcotest.(check bool) "bucket change is novel" true
    (Nyx_targets.Coverage.Cumulative.merge cum c)

(* Policy *)

let test_policy_short_inputs_use_root () =
  let rng = Nyx_sim.Rng.create 1 in
  List.iter
    (fun kind ->
      let p = Policy.create kind rng in
      for packets = 1 to 4 do
        Alcotest.(check bool) "root for short" true
          (Policy.decide p ~input_id:0 ~packets = `Root)
      done)
    [ Policy.None_; Policy.Balanced; Policy.Aggressive ]

let test_policy_none_always_root () =
  let p = Policy.create Policy.None_ (Nyx_sim.Rng.create 1) in
  for i = 0 to 50 do
    Alcotest.(check bool) "always root" true (Policy.decide p ~input_id:i ~packets:20 = `Root)
  done

let test_policy_balanced_distribution () =
  let p = Policy.create Policy.Balanced (Nyx_sim.Rng.create 1) in
  let roots = ref 0 and second_half = ref 0 and total = 2000 in
  for _ = 1 to total do
    match Policy.decide p ~input_id:0 ~packets:20 with
    | `Root -> incr roots
    | `At i ->
      Alcotest.(check bool) "index in range" true (i >= 1 && i <= 19);
      if i >= 10 then incr second_half
  done;
  (* ~4% root; second half gets 50% + half of the uniform draws ≈ 75%. *)
  Alcotest.(check bool) "root rate ~4%" true (!roots > 30 && !roots < 150);
  Alcotest.(check bool) "second half favored" true
    (float_of_int !second_half /. float_of_int (total - !roots) > 0.6)

let test_policy_aggressive_cycles () =
  let p = Policy.create Policy.Aggressive (Nyx_sim.Rng.create 1) in
  let packets = 8 in
  Alcotest.(check bool) "starts at end" true
    (Policy.decide p ~input_id:0 ~packets = `At (packets - 1));
  Policy.notify_no_news p ~input_id:0;
  Alcotest.(check bool) "moves earlier" true
    (Policy.decide p ~input_id:0 ~packets = `At (packets - 2));
  (* Walk to the start: wraps back to the end. *)
  for _ = 1 to packets - 2 do
    Policy.notify_no_news p ~input_id:0
  done;
  Alcotest.(check bool) "wraps" true (Policy.decide p ~input_id:0 ~packets = `At (packets - 1))

(* Corpus *)

let mk_program () =
  let ns = Campaign.net_spec () in
  Nyx_spec.Net_spec.seed_of_packets ns [ Bytes.of_string "x" ]

let test_corpus_add_schedule () =
  let c = Corpus.create () in
  let rng = Nyx_sim.Rng.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Corpus.schedule: empty corpus")
    (fun () -> ignore (Corpus.schedule c rng));
  let p = mk_program () in
  for i = 0 to 9 do
    ignore (Corpus.add c ~program:p ~exec_ns:100 ~discovered_ns:i ~state_code:i)
  done;
  check_int "size" 10 (Corpus.size c);
  let seen = Hashtbl.create 10 in
  for _ = 1 to 400 do
    Hashtbl.replace seen (Corpus.schedule c rng).Corpus.id ()
  done;
  Alcotest.(check bool) "all entries reachable" true (Hashtbl.length seen = 10)

let test_corpus_state_aware_prefers_rare () =
  let c = Corpus.create () in
  let rng = Nyx_sim.Rng.create 1 in
  let p = mk_program () in
  (* Nine entries in state 200, one in rare state 500. *)
  for _ = 1 to 9 do
    ignore (Corpus.add c ~program:p ~exec_ns:1 ~discovered_ns:0 ~state_code:200)
  done;
  let rare = Corpus.add c ~program:p ~exec_ns:1 ~discovered_ns:0 ~state_code:500 in
  let hits = ref 0 in
  let total = 1000 in
  for _ = 1 to total do
    if (Corpus.schedule_state_aware c rng).Corpus.id = rare.Corpus.id then incr hits
  done;
  (* Uniform would give ~10%; state-aware weights the rare state at 50%. *)
  Alcotest.(check bool)
    (Printf.sprintf "rare state favored (%d/1000)" !hits)
    true (!hits > 300)

(* Executor *)

let echo_entry () = Option.get (Nyx_targets.Registry.find "echo")

let mk_exec () =
  let ns = Campaign.net_spec () in
  let entry = echo_entry () in
  (Executor.create ~net_spec:ns entry.Nyx_targets.Registry.target, ns)

let program_of ns packets = Nyx_spec.Net_spec.seed_of_packets ns (List.map Bytes.of_string packets)

let test_executor_run_full () =
  let exec, ns = mk_exec () in
  let r = Executor.run_full exec (program_of ns [ "hello\r\n" ]) in
  Alcotest.(check bool) "pass" true (r.Report.status = Report.Pass);
  Alcotest.(check bool) "coverage collected" true
    (Nyx_targets.Coverage.edge_count (Executor.coverage exec) > 0);
  Alcotest.(check bool) "virtual time charged" true (r.Report.exec_ns > 0)

let test_executor_detects_crash () =
  let exec, ns = mk_exec () in
  let r = Executor.run_full exec (program_of ns [ "MODE raw\r\n"; "BOOM\r\n" ]) in
  match r.Report.status with
  | Report.Crash { kind; _ } -> Alcotest.(check string) "kind" "assertion" kind
  | _ -> Alcotest.fail "expected crash"

let test_executor_resets_between_runs () =
  let exec, ns = mk_exec () in
  (* Set raw mode in one run; next run must not remember it. *)
  let r1 = Executor.run_full exec (program_of ns [ "MODE raw\r\n" ]) in
  Alcotest.(check bool) "r1 pass" true (r1.Report.status = Report.Pass);
  let r2 = Executor.run_full exec (program_of ns [ "BOOM\r\n" ]) in
  Alcotest.(check bool) "state was reset" true (r2.Report.status = Report.Pass)

let test_executor_deterministic () =
  let exec, ns = mk_exec () in
  let p = program_of ns [ "abc\r\n"; "MODE raw\r\n"; "defg\r\n" ] in
  (* The very first run restores a pristine VM (cheaper); compare
     steady-state executions. *)
  ignore (Executor.run_full exec p);
  let r1 = Executor.run_full exec p in
  let e1 = Nyx_targets.Coverage.edge_count (Executor.coverage exec) in
  let r2 = Executor.run_full exec p in
  let e2 = Nyx_targets.Coverage.edge_count (Executor.coverage exec) in
  Alcotest.(check bool) "same cost" true (r1.Report.exec_ns = r2.Report.exec_ns);
  check_int "same coverage" e1 e2

let test_executor_session_lifecycle () =
  let exec, ns = mk_exec () in
  let p = Nyx_spec.Program.with_snapshot_at (program_of ns [ "MODE raw\r\n"; "x\r\n" ]) 2 in
  match Executor.start_session exec p with
  | Error _ -> Alcotest.fail "session should start"
  | Ok session ->
    check_int "suffix after snapshot op" 3 (Executor.suffix_start session);
    (* The prefix set raw mode; a BOOM suffix crashes every time. *)
    let boom =
      {
        p with
        Nyx_spec.Program.ops =
          Array.append
            (Array.sub p.Nyx_spec.Program.ops 0 3)
            [|
              {
                Nyx_spec.Program.node = 2 (* packet *);
                args = [| 0 |];
                data = [| Bytes.of_string "BOOM\r\n" |];
              };
            |];
      }
    in
    (match Nyx_spec.Program.validate boom with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    for _ = 1 to 3 do
      let r = Executor.run_suffix exec session boom in
      match r.Report.status with
      | Report.Crash { kind; _ } -> Alcotest.(check string) "crashes" "assertion" kind
      | _ -> Alcotest.fail "expected crash in suffix"
    done;
    Executor.end_session exec session;
    (* Back at root: raw mode gone. *)
    let r = Executor.run_full exec (program_of ns [ "BOOM\r\n" ]) in
    Alcotest.(check bool) "root state restored" true (r.Report.status = Report.Pass)

let test_executor_suffix_cheaper_than_full () =
  let entry = Option.get (Nyx_targets.Registry.find "exim") in
  let ns = Campaign.net_spec () in
  let exec = Executor.create ~net_spec:ns entry.Nyx_targets.Registry.target in
  let packets =
    [ "EHLO c\r\n"; "MAIL FROM:<a@b>\r\n"; "RCPT TO:<c@d>\r\n"; "DATA\r\n"; "hi\r\n.\r\n" ]
  in
  let p = program_of ns packets in
  let full = Executor.run_full exec p in
  let snap = Nyx_spec.Program.with_snapshot_at p 5 in
  match Executor.start_session exec snap with
  | Error _ -> Alcotest.fail "session"
  | Ok session ->
    let suffix = Executor.run_suffix exec session snap in
    Executor.end_session exec session;
    Alcotest.(check bool)
      (Printf.sprintf "suffix (%d ns) much cheaper than full (%d ns)"
         suffix.Report.exec_ns full.Report.exec_ns)
      true
      (suffix.Report.exec_ns * 3 < full.Report.exec_ns)

(* Coverage pins: every registry target's seeds plus fixed havoc
   mutants, digested by [Pins]. Recorded before the instrumentation
   sites were bound to precomputed edge ids. *)
let coverage_pins =
  [
    ("bftpd", "ec3135b9f6745ebf49106ef6a5112029");
    ("dcmtk", "36ada47748492331bb045e8e83d946d8");
    ("dnsmasq", "2f988455a0923b4ef54cd7816da06df2");
    ("exim", "76eba911797564b074491ff4cf888709");
    ("forked-daapd", "800fb3752d0e3ff0fedd8450151b7a58");
    ("kamailio", "d8507789d478b37793942e95c331f65c");
    ("lightftp", "2d2b6ca413bb2f46a7f89a8e50100809");
    ("live555", "c00fe3d79fe63df7161e847a16aef28f");
    ("openssh", "b75f67a8ae658c7a17701f3c3b4cabdc");
    ("openssl", "b0a3ef8fb62dd608538540985d3503f3");
    ("proftpd", "8d213a616a76f69bb2de0c455e5eb364");
    ("pure-ftpd", "b36c9ba2df274ab6baae4cd60da8a0cf");
    ("tinydtls", "83b8d870c7595a1696f1ff244993d0b0");
    ("echo", "c2e44b08e31a65c558a26b4424165bfc");
    ("firefox-ipc", "6b8385d0fe40427ab0af1ddc0185bd2c");
    ("mysql-client", "cd95d7925febe88c63c89a537dc716ed");
    ("lighttpd", "c958ffbf6cf253961e87ff64392e8fe8");
  ]

let test_coverage_pins () =
  let entries = Nyx_targets.Registry.all () in
  check_int "every registry target pinned" (List.length coverage_pins) (List.length entries);
  List.iter
    (fun (entry : Nyx_targets.Registry.entry) ->
      let info = entry.Nyx_targets.Registry.target.Nyx_targets.Target.info in
      let name = info.Nyx_targets.Target.name in
      Alcotest.(check string) name (List.assoc name coverage_pins) (Pins.of_entry entry))
    entries

(* [target] with every reply its hooks send also logged, newest first, as
   (connection, bytes). *)
let logging_replies (target : Nyx_targets.Target.t) log =
  let h = target.Nyx_targets.Target.hooks in
  let logged conn reply data =
    log := (conn, Bytes.to_string data) :: !log;
    reply data
  in
  {
    target with
    Nyx_targets.Target.hooks =
      {
        h with
        Nyx_targets.Target.on_connect =
          (fun ctx ~g ~conn ~reply ->
            h.Nyx_targets.Target.on_connect ctx ~g ~conn ~reply:(logged conn reply));
        on_packet =
          (fun ctx ~g ~conn ~reply data ->
            h.Nyx_targets.Target.on_packet ctx ~g ~conn ~reply:(logged conn reply) data);
      };
  }

(* Snapshot transparency: a mutant's suffix run against the incremental
   snapshot must be indistinguishable from the whole mutant run from the
   root — same status, protocol state, coverage map, aux state (the
   [state_hash] of the netemu and peer images) and replies — in bytecode
   mode on every registry target and in peer mode on every peer script.
   The replies are what the target's hooks send, in order: the full run's
   must be the session prefix's followed by the suffix run's. Each case
   draws, for every target, a seed with at least 2 ops, an interior
   snapshot index and [mutants] suffix mutants. Every target must compare
   all its mutants, so sessions that fail to start (or a target with no
   such seed) fail the property instead of passing it vacuously. *)
let prop_snapshot_transparency ~peer =
  let ns = Campaign.net_spec () in
  let instance (entry : Nyx_targets.Registry.entry) =
    let log = ref [] in
    let target = logging_replies entry.Nyx_targets.Registry.target log in
    let name = target.Nyx_targets.Target.info.Nyx_targets.Target.name in
    let exec, seeds =
      if peer then
        let script = Option.get (Nyx_peer.Peer_script.find name) in
        ( Executor.create ~peer:script ~net_spec:ns target,
          Nyx_peer.Peer_script.seed_programs script ns )
      else (Executor.create ~net_spec:ns target, Nyx_targets.Registry.seed_programs entry ns)
    in
    (exec, log, Array.of_list (List.filter (fun p -> Nyx_spec.Program.packet_count p >= 2) seeds))
  in
  let entries =
    if peer then
      List.map
        (fun n -> Option.get (Nyx_targets.Registry.find n))
        (Nyx_peer.Peer_script.supported ())
    else Nyx_targets.Registry.all ()
  in
  let instances = List.map instance entries in
  let mutants = 4 in
  let observe exec (r : Report.exec_result) =
    ( r.Report.status,
      r.Report.state_code,
      Nyx_targets.Coverage.signature (Executor.coverage exec) )
  in
  (* What [f ()] sends, oldest first. *)
  let replies log f =
    log := [];
    let r = f () in
    (r, List.rev !log)
  in
  let compare_pairs rng seed_pick at_pick (exec, log, seeds) =
    if Array.length seeds = 0 then 0
    else
      let seed = seeds.(seed_pick mod Array.length seeds) in
      let at = 1 + (at_pick mod (Nyx_spec.Program.packet_count seed - 1)) in
      let snap = Nyx_spec.Program.with_snapshot_at seed at in
      match replies log (fun () -> Executor.start_session exec snap) with
      | Error _, _ -> 0
      | Ok session, prefix_replies ->
        let frozen = Executor.suffix_start session in
        let progs = List.init mutants (fun _ -> Nyx_spec.Mutator.mutate rng ~frozen snap) in
        let suffix =
          List.map
            (fun p ->
              let r, suffix_replies = replies log (fun () -> Executor.run_suffix exec session p) in
              (observe exec r, Executor.state_hash exec, suffix_replies))
            progs
        in
        Executor.end_session exec session;
        List.iter2
          (fun p (seen, hash, suffix_replies) ->
            let r, full_replies = replies log (fun () -> Executor.run_full exec p) in
            if seen <> observe exec r then
              QCheck.Test.fail_reportf "%s: suffix run after op %d differs from the full run"
                (Executor.target_name exec) at;
            let k = List.length prefix_replies in
            let head = List.filteri (fun i _ -> i < k) full_replies
            and rest = List.filteri (fun i _ -> i >= k) full_replies in
            if head <> prefix_replies then
              QCheck.Test.fail_reportf
                "%s: the full run's first %d replies differ from the session prefix's"
                (Executor.target_name exec) k;
            if rest <> suffix_replies then
              QCheck.Test.fail_reportf
                "%s: replies after op %d differ between the suffix run and the full run"
                (Executor.target_name exec) at;
            (* [run_full] of a program with a snapshot op ends with a root
               restore, so the state to compare is the stripped run's. *)
            ignore (Executor.run_full exec (Nyx_spec.Program.strip_snapshots p));
            if hash <> Executor.state_hash exec then
              QCheck.Test.fail_reportf
                "%s: netemu/peer state after the suffix run after op %d differs from the full run"
                (Executor.target_name exec) at)
          progs suffix;
        mutants
  in
  QCheck.Test.make ~count:100
    ~name:(if peer then "snapshot transparency, peer" else "snapshot transparency, bytecode")
    QCheck.(triple small_nat small_nat int)
    (fun (seed_pick, at_pick, rng_seed) ->
      let rng = Nyx_sim.Rng.create rng_seed in
      let pairs =
        List.fold_left (fun n i -> n + compare_pairs rng seed_pick at_pick i) 0 instances
      in
      pairs = mutants * List.length entries)

(* Campaign *)

let quick_config policy =
  {
    Campaign.default_config with
    Campaign.budget_ns = 8_000_000_000;
    max_execs = 25_000;
    policy;
  }

let test_campaign_finds_echo_crash () =
  let r = Campaign.run (quick_config Policy.Aggressive) (echo_entry ()) in
  Alcotest.(check bool) "found the planted bug" true (Report.found_kind r "assertion");
  Alcotest.(check bool) "coverage grew" true (r.Report.final_edges > 5);
  Alcotest.(check bool) "corpus grew" true (r.Report.corpus_size > 1)

let test_campaign_reproducible () =
  let r1 = Campaign.run (quick_config Policy.Balanced) (echo_entry ()) in
  let r2 = Campaign.run (quick_config Policy.Balanced) (echo_entry ()) in
  check_int "same execs" r1.Report.execs r2.Report.execs;
  check_int "same coverage" r1.Report.final_edges r2.Report.final_edges;
  check_int "same crashes" (List.length r1.Report.crashes) (List.length r2.Report.crashes)

let test_campaign_seed_changes_run () =
  let r1 = Campaign.run (quick_config Policy.Balanced) (echo_entry ()) in
  let r2 =
    Campaign.run { (quick_config Policy.Balanced) with Campaign.seed = 999 } (echo_entry ())
  in
  Alcotest.(check bool) "different trajectory" true
    (r1.Report.execs <> r2.Report.execs || r1.Report.final_edges <> r2.Report.final_edges)

let test_campaign_respects_budget () =
  let cfg = { (quick_config Policy.None_) with Campaign.budget_ns = 100_000_000 } in
  let r = Campaign.run cfg (echo_entry ()) in
  Alcotest.(check bool) "stops near budget" true
    (r.Report.virtual_ns < 2 * cfg.Campaign.budget_ns)

let test_campaign_timeline_monotonic () =
  let r = Campaign.run (quick_config Policy.Aggressive) (echo_entry ()) in
  let samples = Nyx_sim.Stats.Timeline.samples r.Report.timeline in
  Alcotest.(check bool) "non-empty" true (samples <> []);
  let rec mono = function
    | (t1, v1) :: ((t2, v2) :: _ as rest) -> t1 <= t2 && v1 <= v2 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotonic" true (mono samples)

let test_campaign_crash_input_reproduces () =
  let r = Campaign.run (quick_config Policy.Aggressive) (echo_entry ()) in
  match List.find_opt (fun c -> c.Report.kind = "assertion") r.Report.crashes with
  | None -> Alcotest.fail "no crash found"
  | Some crash -> (
    let ns = Campaign.net_spec () in
    match Nyx_spec.Program.parse ns.Nyx_spec.Net_spec.spec crash.Report.input with
    | Error m -> Alcotest.fail ("reproducer does not parse: " ^ m)
    | Ok program -> (
      let entry = echo_entry () in
      let exec = Executor.create ~net_spec:ns entry.Nyx_targets.Registry.target in
      let result = Executor.run_full exec program in
      match result.Report.status with
      | Report.Crash { kind; _ } -> Alcotest.(check string) "reproduces" "assertion" kind
      | _ -> Alcotest.fail "reproducer did not crash"))

let test_median_result () =
  let mk edges =
    {
      Report.fuzzer = "x";
      target = "t";
      run_seed = 0;
      timeline = Nyx_sim.Stats.Timeline.create ();
      exec_timeline = Nyx_sim.Stats.Timeline.create ();
      final_edges = edges;
      execs = 0;
      virtual_ns = 1;
      execs_per_sec = 0.0;
      crashes = [];
      corpus_size = 0;
      solved_ns = None;
      snapshot_stats = None;
      wall_s = 0.0;
      phase_profile = None;
      resilience = None;
      placement = None;
      mutation = None;
      peer = None;
    }
  in
  check_int "median of three" 20
    (Campaign.median_result [ mk 30; mk 10; mk 20 ]).Report.final_edges





(* Report helpers *)

let test_report_helpers () =
  let crash kind =
    { Report.kind; detail = "d"; found_ns = 1; found_exec = 1; input = Bytes.empty }
  in
  let base =
    {
      Report.fuzzer = "f";
      target = "t";
      run_seed = 0;
      timeline = Nyx_sim.Stats.Timeline.create ();
      exec_timeline = Nyx_sim.Stats.Timeline.create ();
      final_edges = 10;
      execs = 100;
      virtual_ns = 1_000_000_000;
      execs_per_sec = 100.0;
      crashes = [];
      corpus_size = 5;
      solved_ns = None;
      snapshot_stats = None;
      wall_s = 0.0;
      phase_profile = None;
      resilience = None;
      placement = None;
      mutation = None;
      peer = None;
    }
  in
  Alcotest.(check bool) "no crashes" false (Report.crashed base);
  let with_solve = { base with Report.crashes = [ crash "level-solved" ] } in
  Alcotest.(check bool) "a solve is not a crash" false (Report.crashed with_solve);
  let with_crash = { base with Report.crashes = [ crash "segfault" ] } in
  Alcotest.(check bool) "real crash" true (Report.crashed with_crash);
  Alcotest.(check bool) "found kind" true (Report.found_kind with_crash "segfault");
  Alcotest.(check bool) "missing kind" false (Report.found_kind with_crash "oom");
  let rendered = Format.asprintf "%a" Report.pp_summary with_crash in
  Alcotest.(check bool) "summary mentions fuzzer and target" true
    (String.length rendered > 0)

(* Typed IPC spec (custom opcode handlers) *)

let ipc_entry () = Option.get (Nyx_targets.Registry.find "firefox-ipc")

let test_typed_spec_seed_drives_target () =
  let ts = Nyx_targets.Ipc_spec.create () in
  let entry = ipc_entry () in
  let ns = Campaign.net_spec () in
  let exec =
    Executor.create ~custom:(Nyx_targets.Ipc_spec.handler ts) ~net_spec:ns
      entry.Nyx_targets.Registry.target
  in
  let r = Executor.run_full exec (Nyx_targets.Ipc_spec.seed ts) in
  Alcotest.(check bool) "typed seed passes" true (r.Report.status = Report.Pass);
  Alcotest.(check bool) "exercises the broker" true
    (Nyx_targets.Coverage.edge_count (Executor.coverage exec) > 5)

let test_typed_spec_expresses_uaf () =
  (* destroy borrows rather than consumes, so message-after-destroy is a
     well-typed program — and triggers the planted use-after-free. *)
  let ts = Nyx_targets.Ipc_spec.create () in
  let b = Nyx_spec.Builder.create ts.Nyx_targets.Ipc_spec.spec in
  let a =
    List.hd (Nyx_spec.Builder.call b "create" ~data:[ Bytes.of_string "\x03" ] [])
  in
  ignore (Nyx_spec.Builder.call b "destroy" [ a ]);
  ignore (Nyx_spec.Builder.call b "message" ~data:[ Bytes.of_string "boom" ] [ a ]);
  let program = Nyx_spec.Builder.build b in
  let entry = ipc_entry () in
  let ns = Campaign.net_spec () in
  let exec =
    Executor.create ~custom:(Nyx_targets.Ipc_spec.handler ts) ~net_spec:ns
      entry.Nyx_targets.Registry.target
  in
  match (Executor.run_full exec program).Report.status with
  | Report.Crash { kind = "use-after-free"; _ } -> ()
  | _ -> Alcotest.fail "typed UAF witness must crash"

let test_typed_campaign_finds_uaf_fast () =
  let ts = Nyx_targets.Ipc_spec.create () in
  let cfg =
    {
      Campaign.default_config with
      Campaign.budget_ns = 20_000_000_000;
      max_execs = 5_000;
      policy = Policy.Aggressive;
    }
  in
  let r =
    Campaign.run
      ~seeds:[ Nyx_targets.Ipc_spec.seed ts ]
      ~custom:(Nyx_targets.Ipc_spec.handler ts) cfg (ipc_entry ())
  in
  Alcotest.(check bool) "typed campaign finds the use-after-free" true
    (Report.found_kind r "use-after-free")

(* A typed-spec campaign's programs mean something only to its handler:
   resuming parses corpus entries against the raw-network spec, and the
   typed engine generates raw-network programs, so [start] refuses both. *)
let test_typed_spec_rejects_raw_spec_paths () =
  let ts = Nyx_targets.Ipc_spec.create () in
  let start ?checkpoint cfg () =
    ignore
      (Campaign.start
         ~seeds:[ Nyx_targets.Ipc_spec.seed ts ]
         ~custom:(Nyx_targets.Ipc_spec.handler ts) ?checkpoint cfg (ipc_entry ()))
  in
  let checkpoint =
    Campaign.checkpointing
      ~path:(Filename.concat (Filename.get_temp_dir_name ()) "nyx-never-written.ckpt")
      ~interval_ns:1_000_000_000 ()
  in
  Alcotest.check_raises "checkpoint"
    (Invalid_argument "Campaign.start: ~custom campaigns cannot checkpoint")
    (start ~checkpoint Campaign.default_config);
  Alcotest.check_raises "typed engine"
    (Invalid_argument "Campaign.start: ~custom campaigns cannot use the typed engine")
    (start { Campaign.default_config with Campaign.engine = Engines.Typed })

(* Fleet *)

let mario_entry name =
  let level = Option.get (Nyx_mario.Level.find name) in
  {
    Nyx_targets.Registry.target = Nyx_mario.Mario_target.target level;
    seeds = Nyx_mario.Mario_target.seeds level;
  }

let mario_config budget_ns =
  {
    Campaign.default_config with
    Campaign.budget_ns;
    max_execs = 30_000;
    policy = Policy.Aggressive;
    stop_on_solve = true;
  }

let test_fleet_parallel_solve () =
  let entry = mario_entry "1-1" in
  let config = mario_config 120_000_000_000 in
  let solo = Campaign.run config entry in
  let fleet = Fleet.run ~instances:4 ~config entry in
  Alcotest.(check bool) "fleet solves" true (fleet.Fleet.first_solve_ns <> None);
  Alcotest.(check bool) "fleet counts instances" true (fleet.Fleet.instances = 4);
  match (solo.Report.solved_ns, fleet.Fleet.first_solve_ns) with
  | Some solo_t, Some fleet_t ->
    Alcotest.(check bool) "parallel minimum is no slower than member seed" true
      (fleet_t <= solo_t)
  | _ -> ()

(* The instances of a fleet share one target value. A Mario target keeps
   each instance's game in that instance's guest memory, so the fleet's
   results cannot depend on how many domains run it. *)
let test_fleet_mario_domains () =
  let entry = mario_entry "1-1" in
  let config = mario_config 60_000_000_000 in
  let seq = Fleet.run ~instances:4 ~domains:1 ~config entry in
  let par = Fleet.run ~instances:4 ~domains:2 ~config entry in
  check_int "solves" seq.Fleet.solves par.Fleet.solves;
  Alcotest.(check bool) "2 domains == 1 domain" true
    (List.length seq.Fleet.results = List.length par.Fleet.results
    && List.for_all2 Report.same_deterministic seq.Fleet.results par.Fleet.results)

(* Minimizer *)

let test_minimizer_shrinks_echo_crash () =
  let exec, ns = mk_exec () in
  let noisy =
    program_of ns
      [ "padding one\r\n"; "MODE raw\r\n"; "more padding\r\n"; "BOOMnoise trailing\r\n";
        "trailing garbage\r\n" ]
  in
  (match (Executor.run_full exec noisy).Report.status with
  | Report.Crash { kind = "assertion"; _ } -> ()
  | _ -> Alcotest.fail "setup: noisy program must crash");
  let minimized, execs =
    Minimizer.minimize ~run:(Executor.run_full exec)
      ~keep:(Minimizer.keep_crash_kind "assertion")
      noisy
  in
  Alcotest.(check bool) "verified executions spent" true (execs > 1);
  Alcotest.(check bool) "smaller" true
    (Minimizer.serialized_size minimized < Minimizer.serialized_size noisy);
  (* The minimal witness: connect + MODE raw + BOOM. *)
  check_int "three ops" 3 (Array.length minimized.Nyx_spec.Program.ops);
  (match (Executor.run_full exec minimized).Report.status with
  | Report.Crash { kind = "assertion"; _ } -> ()
  | _ -> Alcotest.fail "minimized program must still crash")

let test_minimizer_rejects_non_witness () =
  let exec, ns = mk_exec () in
  let benign = program_of ns [ "hello\r\n" ] in
  Alcotest.check_raises "not a witness"
    (Invalid_argument "Minimizer.minimize: program does not satisfy the predicate")
    (fun () ->
      ignore
        (Minimizer.minimize ~run:(Executor.run_full exec)
           ~keep:(Minimizer.keep_crash_kind "assertion")
           benign))

let test_minimizer_coverage_witness () =
  (* Minimize against a coverage predicate instead of a crash. *)
  let exec, ns = mk_exec () in
  let p = program_of ns [ "MODE raw\r\n"; "x\r\n"; "y\r\n" ] in
  let keep (r : Report.exec_result) =
    r.Report.status = Report.Pass
    && Nyx_targets.Coverage.edge_count (Executor.coverage exec) > 4
  in
  let minimized, _ = Minimizer.minimize ~run:(Executor.run_full exec) ~keep p in
  Alcotest.(check bool) "still satisfies" true (keep (Executor.run_full exec minimized));
  Alcotest.(check bool) "not larger" true
    (Minimizer.serialized_size minimized <= Minimizer.serialized_size p)

let () =
  Alcotest.run "nyx_core"
    [
      ( "coverage",
        [
          Alcotest.test_case "basics" `Quick test_coverage_basics;
          Alcotest.test_case "edge direction" `Quick test_coverage_edges_are_paths;
          Alcotest.test_case "save/restore" `Quick test_coverage_save_restore;
          Alcotest.test_case "cumulative" `Quick test_cumulative_merge;
        ] );
      ( "policy",
        [
          Alcotest.test_case "short inputs" `Quick test_policy_short_inputs_use_root;
          Alcotest.test_case "none" `Quick test_policy_none_always_root;
          Alcotest.test_case "balanced" `Quick test_policy_balanced_distribution;
          Alcotest.test_case "aggressive cycles" `Quick test_policy_aggressive_cycles;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "add/schedule" `Quick test_corpus_add_schedule;
          Alcotest.test_case "state aware" `Quick test_corpus_state_aware_prefers_rare;
        ] );
      ( "executor",
        [
          Alcotest.test_case "run full" `Quick test_executor_run_full;
          Alcotest.test_case "crash" `Quick test_executor_detects_crash;
          Alcotest.test_case "resets" `Quick test_executor_resets_between_runs;
          Alcotest.test_case "deterministic" `Quick test_executor_deterministic;
          Alcotest.test_case "session" `Quick test_executor_session_lifecycle;
          Alcotest.test_case "suffix cheaper" `Quick test_executor_suffix_cheaper_than_full;
          Alcotest.test_case "coverage pins" `Quick test_coverage_pins;
          QCheck_alcotest.to_alcotest (prop_snapshot_transparency ~peer:false);
          QCheck_alcotest.to_alcotest (prop_snapshot_transparency ~peer:true);
        ] );
      ( "report", [ Alcotest.test_case "helpers" `Quick test_report_helpers ] );
      ( "typed spec",
        [
          Alcotest.test_case "seed drives target" `Quick test_typed_spec_seed_drives_target;
          Alcotest.test_case "expresses UAF" `Quick test_typed_spec_expresses_uaf;
          Alcotest.test_case "campaign finds UAF" `Quick test_typed_campaign_finds_uaf_fast;
          Alcotest.test_case "rejects raw-spec checkpoint and engine" `Quick
            test_typed_spec_rejects_raw_spec_paths;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "parallel solve" `Quick test_fleet_parallel_solve;
          Alcotest.test_case "mario: 2 domains == 1 domain" `Quick test_fleet_mario_domains;
        ] );
      ( "minimizer",
        [
          Alcotest.test_case "shrinks crash" `Quick test_minimizer_shrinks_echo_crash;
          Alcotest.test_case "rejects non-witness" `Quick test_minimizer_rejects_non_witness;
          Alcotest.test_case "coverage witness" `Quick test_minimizer_coverage_witness;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "finds crash" `Quick test_campaign_finds_echo_crash;
          Alcotest.test_case "reproducible" `Quick test_campaign_reproducible;
          Alcotest.test_case "seed matters" `Quick test_campaign_seed_changes_run;
          Alcotest.test_case "budget" `Quick test_campaign_respects_budget;
          Alcotest.test_case "timeline" `Quick test_campaign_timeline_monotonic;
          Alcotest.test_case "crash reproduces" `Quick test_campaign_crash_input_reproduces;
          Alcotest.test_case "median" `Quick test_median_result;
        ] );
    ]
