open Nyx_targets

type config = {
  policy : Policy.kind;
  budget_ns : int;
  max_execs : int;
  seed : int;
  asan : bool;
  stop_on_solve : bool;
  trim : bool;
  sample_interval_ns : int;
  engine : Engines.kind;
  mutator_weights : (string * float) list;
}

let default_config =
  {
    policy = Policy.Aggressive;
    budget_ns = 30_000_000_000;
    max_execs = 200_000;
    seed = 1;
    asan = false;
    stop_on_solve = false;
    trim = false;
    sample_interval_ns = 250_000_000;
    engine = Engines.Havoc;
    mutator_weights = [];
  }

let net_spec () = Nyx_spec.Net_spec.create ()

let make_seeds entry spec = Registry.seed_programs entry spec

(* Periodic crash-safe checkpointing (ISSUE: nyx_resilience). *)
type checkpoint_cfg = {
  ck_path : string;
  ck_interval_ns : int;
  ck_on_write : (int -> unit) option;
}

let checkpointing ?on_write ~path ~interval_ns () =
  if interval_ns <= 0 then
    invalid_arg "Campaign.checkpointing: interval_ns must be positive";
  { ck_path = path; ck_interval_ns = interval_ns; ck_on_write = on_write }

(* A program worth sharing with fleet peers: it grew this campaign's
   corpus, and its saved coverage map lets peers judge novelty against
   their own (or a fleet-wide) virgin map without re-executing it. *)
type export = {
  ex_program : Nyx_spec.Program.t;  (* post-trim, snapshot-stripped *)
  ex_cov : Coverage.checkpoint;  (* the discovering execution's map *)
  ex_cells : int;  (* saved hit cells; drives sync merge cost *)
  ex_exec_ns : int;
  ex_state_code : int;
}

(* Campaign-internal mutable state threaded through triage. *)
type state = {
  cfg : config;
  exec : Executor.t;
  corpus : Corpus.t;
  cumulative : Coverage.Cumulative.t;
  timeline : Nyx_sim.Stats.Timeline.t;
  exec_timeline : Nyx_sim.Stats.Timeline.t;
      (* coverage keyed by execs instead of virtual time, recorded at
         every coverage event — the bench's execs-to-frontier metric *)
  rng : Nyx_sim.Rng.t;  (* scheduling *)
  policy : Policy.t;
  mut_rng : Nyx_sim.Rng.t;
  engine : Nyx_spec.Mutation_engine.t;
  (* [dict], [max_ops] and [plan] are set once, after [boot]: derived
     from the seeds by [start], or read back by [restore]. *)
  mutable dict : bytes list;
  mutable max_ops : int;
  mutable plan : Nyx_resilience.Plan.t option;  (* armed fault plan, if any *)
  static_prior : bool;
      (* feed the Dataflow boundary prior to probes; off when a custom
         op handler is installed (its effects are outside the static
         model, so inertness claims would be unsound) *)
  prior_udp : bool;  (* target transport, for the inertness classification *)
  prof : Nyx_obs.Profile.t option;
  ck : checkpoint_cfg option;
  mutable ck_last : int;
  mutable ck_ordinal : int;
  mutable execs : int;
  mutable crashes : Report.crash_report list;
  mutable solved_ns : int option;
  mutable last_sample : int;
  mutable stop : bool;
  collect_exports : bool;
  mutable pending_exports : export list;  (* newest first *)
  mutable until_ns : int;  (* pause barrier for stepped runs *)
}

let now st = Nyx_sim.Clock.now_ns (Executor.clock st.exec)

(* Campaign-level phase attribution (cov-merge, trim) goes to the same
   accumulator the executor writes. One branch per site when off. *)
let prof_span st phase f =
  match Executor.profile st.exec with
  | None -> f ()
  | Some p -> Nyx_obs.Profile.span p phase (Executor.clock st.exec) f

let prof_override st phase f =
  match Executor.profile st.exec with
  | None -> f ()
  | Some p -> Nyx_obs.Profile.with_override p phase f

let over_budget st =
  st.stop
  || now st >= st.cfg.budget_ns
  || st.execs >= st.cfg.max_execs

(* Loop predicate for stepped (fleet-synced) runs: in addition to the
   budget, stop when the virtual clock crosses the sync barrier. A plain
   [run] keeps [until_ns = max_int], so [paused] reduces to
   [over_budget] and the unstepped path is bit-identical. *)
let paused st = over_budget st || now st >= st.until_ns

let sample ?(force = false) st =
  let t = now st in
  if force || t - st.last_sample >= st.cfg.sample_interval_ns then begin
    st.last_sample <- t;
    let edges = float_of_int (Coverage.Cumulative.edge_count st.cumulative) in
    Nyx_sim.Stats.Timeline.record st.timeline t edges;
    (* Forced samples fire exactly at coverage events (novelty, import),
       so the execs-keyed timeline captures every frontier advance. *)
    if force then Nyx_sim.Stats.Timeline.record st.exec_timeline st.execs edges;
    (* Trace-sink fault site, fired where the campaign actually records
       observability output. The plan draw happens whether or not tracing
       is on — the fault sequence must not depend on NYX_TRACE — but the
       sink failure only manifests when a sink exists, which then disables
       itself (degradation; counted as recovered either way). *)
    match st.plan with
    | None -> ()
    | Some plan -> (
      match
        Nyx_resilience.Plan.fire plan Nyx_resilience.Fault.Trace_sink ~vns:t
      with
      | None -> ()
      | Some f ->
        Nyx_resilience.Plan.record_recovered plan f;
        if Nyx_obs.Trace.on () then begin
          Nyx_obs.Trace.inject_flush_failure ();
          Nyx_obs.Trace.flush ()
        end)
  end

(* AFL-style trim: binary-search the shortest op prefix whose execution
   produces the identical coverage map, so stored entries carry no dead
   tail (trailing packets the target never consumed). *)
let trim_program st program =
  (* One O(touched) checkpoint of the full run's map; each probe compares
     the fresh map against it via the journal view ([Coverage.matches]) —
     no 64 KiB copies and no structural map comparison per probe. *)
  let full_map = Coverage.save (Executor.coverage st.exec) in
  let same_cov_at len =
    let candidate =
      { program with
        Nyx_spec.Program.ops = Array.sub program.Nyx_spec.Program.ops 0 len }
    in
    match Nyx_spec.Program.validate candidate with
    | Error _ -> None
    | Ok () ->
      st.execs <- st.execs + 1;
      ignore (Executor.run_full st.exec candidate);
      if Coverage.matches (Executor.coverage st.exec) full_map then Some candidate
      else None
  in
  let n = Array.length program.Nyx_spec.Program.ops in
  let rec search lo hi best =
    (* Invariant: prefixes of length > hi are untested; length hi works
       when [best] says so; lo never works. *)
    if hi - lo <= 1 then best
    else begin
      let mid = (lo + hi) / 2 in
      match same_cov_at mid with
      | Some candidate -> search lo mid candidate
      | None -> search mid hi best
    end
  in
  if n <= 2 || paused st then program else search 1 n program

(* Record one executed test case: merge coverage, grow the corpus, log
   crashes. [stored] is the program to keep if the run found novelty. *)
let triage st (result : Report.exec_result) stored =
  st.execs <- st.execs + 1;
  let novel =
    prof_span st Nyx_obs.Profile.Cov_merge (fun () ->
        Coverage.Cumulative.merge st.cumulative (Executor.coverage st.exec))
  in
  if novel then begin
    (* Export capture happens before trim reuses the map for probes: the
       saved checkpoint is the discovering execution's exact coverage,
       which trim preserves by construction in the stored program. *)
    let ex_cov =
      if st.collect_exports then Some (Coverage.save (Executor.coverage st.exec))
      else None
    in
    let program = Nyx_spec.Program.strip_snapshots stored in
    let program =
      if st.cfg.trim then
        (* Everything trim runs internally (resets, probe executions) is
           charged to the [Trim] phase. *)
        prof_override st Nyx_obs.Profile.Trim (fun () -> trim_program st program)
      else program
    in
    ignore
      (Corpus.add st.corpus ~program ~exec_ns:result.Report.exec_ns
         ~discovered_ns:(now st) ~state_code:result.Report.state_code);
    (match ex_cov with
    | Some cov ->
      st.pending_exports <-
        {
          ex_program = program;
          ex_cov = cov;
          ex_cells = Coverage.checkpoint_cells cov;
          ex_exec_ns = result.Report.exec_ns;
          ex_state_code = result.Report.state_code;
        }
        :: st.pending_exports
    | None -> ());
    sample ~force:true st
  end
  else sample st;
  (match result.Report.status with
  | Report.Pass | Report.Hang -> ()
  | Report.Crash { kind; detail } ->
    if not (List.exists (fun c -> c.Report.kind = kind) st.crashes) then
      st.crashes <-
        {
          Report.kind;
          detail;
          found_ns = now st;
          found_exec = st.execs;
          input = Nyx_spec.Program.serialize stored;
        }
        :: st.crashes;
    if kind = "level-solved" then begin
      if st.solved_ns = None then st.solved_ns <- Some (now st);
      if st.cfg.stop_on_solve then st.stop <- true
    end);
  novel

(* ------------------------------------------------------------------ *)
(* Checkpointing.                                                      *)

(* Only valid between scheduling rounds (loop top): the snapshot engine
   is back in root mode there, and all per-execution state is about to be
   reset anyway, so the campaign reduces to the fields below. *)
let capture st : Checkpoint.t =
  let cfg = st.cfg in
  let samples timeline =
    List.map (fun (t, v) -> (t, Int64.bits_of_float v)) (Nyx_sim.Stats.Timeline.samples timeline)
  in
  {
    Checkpoint.c_policy = Policy.name cfg.policy;
    c_budget_ns = cfg.budget_ns;
    c_max_execs = cfg.max_execs;
    c_seed = cfg.seed;
    c_asan = cfg.asan;
    c_stop_on_solve = cfg.stop_on_solve;
    c_trim = cfg.trim;
    c_sample_interval_ns = cfg.sample_interval_ns;
    c_target = Executor.target_name st.exec;
    c_mut_engine = Engines.name cfg.engine;
    c_mut_weights = List.map (fun (n, w) -> (n, Int64.bits_of_float w)) cfg.mutator_weights;
    c_clock_ns = now st;
    c_execs = st.execs;
    c_last_sample = st.last_sample;
    c_solved_ns = st.solved_ns;
    c_sched_rng = Nyx_sim.Rng.state st.rng;
    c_mut_rng = Nyx_sim.Rng.state st.mut_rng;
    c_corpus =
      (* entries are newest first; rev_map flips to oldest first so ids
         re-assign to their original values on resume. *)
      List.rev_map
        (fun (e : Corpus.entry) ->
          {
            Checkpoint.ce_program = Nyx_spec.Program.serialize e.Corpus.program;
            ce_exec_ns = e.Corpus.exec_ns;
            ce_discovered_ns = e.Corpus.discovered_ns;
            ce_state_code = e.Corpus.state_code;
          })
        (Corpus.entries st.corpus);
    c_virgin = Coverage.Cumulative.state_bytes st.cumulative;
    c_timeline = samples st.timeline;
    c_exec_timeline = samples st.exec_timeline;
    c_crashes =
      List.map
        (fun (c : Report.crash_report) ->
          {
            Checkpoint.cr_kind = c.Report.kind;
            cr_detail = c.Report.detail;
            cr_found_ns = c.Report.found_ns;
            cr_found_exec = c.Report.found_exec;
            cr_input = c.Report.input;
          })
        st.crashes;
    c_dict = st.dict;
    c_max_ops = st.max_ops;
    c_faults =
      Option.map
        (fun p -> (Nyx_resilience.Plan.spec_string p, Nyx_resilience.Plan.state p))
        st.plan;
    c_policy_state = Policy.save st.policy;
    c_engine = Executor.save_engine st.exec;
    (* Valid at the loop top: no mutate→credit pair is in flight there,
       so the per-mutator counters fully describe the engine. *)
    c_mut_state = Nyx_spec.Mutation_engine.save st.engine;
    c_profile = Option.map Nyx_obs.Profile.save st.prof;
    c_peer = Option.map Nyx_peer.Peer_driver.save (Executor.peer_driver st.exec);
  }

(* The inverse of [capture]'s config fields: the config to re-boot a
   checkpointed campaign with. *)
let config_of_checkpoint (ckpt : Checkpoint.t) =
  let parsed = function
    | Ok k -> k
    | Error m -> invalid_arg ("Campaign.resume: " ^ m)
  in
  let policy = parsed (Policy.of_name ckpt.Checkpoint.c_policy) in
  let engine = parsed (Engines.of_name ckpt.Checkpoint.c_mut_engine) in
  {
    policy;
    budget_ns = ckpt.Checkpoint.c_budget_ns;
    max_execs = ckpt.Checkpoint.c_max_execs;
    seed = ckpt.Checkpoint.c_seed;
    asan = ckpt.Checkpoint.c_asan;
    stop_on_solve = ckpt.Checkpoint.c_stop_on_solve;
    trim = ckpt.Checkpoint.c_trim;
    sample_interval_ns = ckpt.Checkpoint.c_sample_interval_ns;
    engine;
    mutator_weights =
      List.map
        (fun (n, bits) -> (n, Int64.float_of_bits bits))
        ckpt.Checkpoint.c_mut_weights;
  }

(* Load one component section, naming it in any rejection. *)
let load_section name load data =
  try load data with
  | Nyx_sim.Wire.Corrupt m | Invalid_argument m ->
    invalid_arg (Printf.sprintf "Campaign.resume: %s section: %s" name m)

(* The inverse of [capture], field by field, applied to a state freshly
   booted from [config_of_checkpoint]. Boot drew the RNG chain from the
   seed; every RNG state restored here overwrites those draws. *)
let restore ~spec st (ckpt : Checkpoint.t) =
  (match (ckpt.Checkpoint.c_peer, Executor.peer_driver st.exec) with
  | Some s, Some d -> load_section "peer" (Nyx_peer.Peer_driver.load d) s
  | _ -> ());
  (match (st.prof, ckpt.Checkpoint.c_profile) with
  | Some p, Some s -> load_section "profile" (Nyx_obs.Profile.load p) s
  | _ -> ());
  Nyx_sim.Rng.set_state st.rng ckpt.Checkpoint.c_sched_rng;
  load_section "policy" (Policy.load st.policy) ckpt.Checkpoint.c_policy_state;
  Nyx_sim.Rng.set_state st.mut_rng ckpt.Checkpoint.c_mut_rng;
  load_section "mutation" (Nyx_spec.Mutation_engine.load st.engine) ckpt.Checkpoint.c_mut_state;
  st.plan <-
    Option.map
      (fun (spec_str, pstate) ->
        let sp =
          match Nyx_resilience.Plan.parse_spec spec_str with
          | Ok sp -> sp
          | Error m -> invalid_arg ("Campaign.resume: stored fault spec: " ^ m)
        in
        (* Dummy-seeded: only the restored state matters. *)
        let p = Nyx_resilience.Plan.create sp (Nyx_sim.Rng.create 0) in
        Nyx_resilience.Plan.restore_state p pstate;
        Executor.arm_faults st.exec p;
        p)
      ckpt.Checkpoint.c_faults;
  (* Rebuild the corpus oldest-first so ids re-assign to their original
     values (Corpus.add numbers sequentially). *)
  List.iter
    (fun (e : Checkpoint.corpus_entry) ->
      let program =
        match
          Nyx_spec.Program.parse spec.Nyx_spec.Net_spec.spec
            e.Checkpoint.ce_program
        with
        | Ok p -> p
        | Error m -> invalid_arg ("Campaign.resume: corpus entry: " ^ m)
      in
      ignore
        (Corpus.add st.corpus ~program ~exec_ns:e.Checkpoint.ce_exec_ns
           ~discovered_ns:e.Checkpoint.ce_discovered_ns
           ~state_code:e.Checkpoint.ce_state_code))
    ckpt.Checkpoint.c_corpus;
  Coverage.Cumulative.load_state st.cumulative ckpt.Checkpoint.c_virgin;
  let load_timeline timeline =
    List.iter (fun (t, bits) ->
        Nyx_sim.Stats.Timeline.record timeline t (Int64.float_of_bits bits))
  in
  load_timeline st.timeline ckpt.Checkpoint.c_timeline;
  load_timeline st.exec_timeline ckpt.Checkpoint.c_exec_timeline;
  st.crashes <-
    List.map
      (fun (c : Checkpoint.crash) ->
        {
          Report.kind = c.Checkpoint.cr_kind;
          detail = c.Checkpoint.cr_detail;
          found_ns = c.Checkpoint.cr_found_ns;
          found_exec = c.Checkpoint.cr_found_exec;
          input = c.Checkpoint.cr_input;
        })
      ckpt.Checkpoint.c_crashes;
  load_section "snapshot-engine" (Executor.load_engine st.exec) ckpt.Checkpoint.c_engine;
  (* Boot charged its costs onto the fresh clock; jump to the campaign's
     checkpointed virtual time, which already accounts for them. *)
  Nyx_sim.Clock.set_ns (Executor.clock st.exec) ckpt.Checkpoint.c_clock_ns;
  st.ck_last <- ckpt.Checkpoint.c_clock_ns;
  st.execs <- ckpt.Checkpoint.c_execs;
  st.solved_ns <- ckpt.Checkpoint.c_solved_ns;
  st.last_sample <- ckpt.Checkpoint.c_last_sample;
  st.dict <- ckpt.Checkpoint.c_dict;
  st.max_ops <- ckpt.Checkpoint.c_max_ops

let maybe_checkpoint st =
  match st.ck with
  | None -> ()
  | Some ck ->
    let t = now st in
    if t - st.ck_last >= ck.ck_interval_ns then begin
      st.ck_last <- t;
      match Checkpoint.save ck.ck_path (capture st) with
      | Ok () ->
        st.ck_ordinal <- st.ck_ordinal + 1;
        if Nyx_obs.Trace.on () then
          Nyx_obs.Trace.instant ~vns:t "checkpoint"
            [
              ("ordinal", Nyx_obs.Trace.Int st.ck_ordinal);
              ("execs", Nyx_obs.Trace.Int st.execs);
            ];
        (match ck.ck_on_write with Some f -> f st.ck_ordinal | None -> ())
      | Error m ->
        (* Checkpointing is a safety net, not a dependency: keep fuzzing. *)
        Printf.eprintf "nyx: checkpoint write failed (%s); continuing\n%!" m
    end

(* ------------------------------------------------------------------ *)
(* The main loop, shared by [run] and [resume].                        *)

(* Dynamic placement: one-time state-boundary probe for this entry plus
   the per-round cost-model evaluation, all under the [Snapshot_place]
   phase (the override pins the probe's internal resets and replays to it
   too). Static policies never reach this — their clock/RNG sequence, and
   so their campaign results, stay byte-identical. *)
let dynamic_prepare st (entry_sched : Corpus.entry) ~packets =
  (match
     Policy.prepare_dynamic st.policy ~input_id:entry_sched.Corpus.id ~packets
       ~full_ns:entry_sched.Corpus.exec_ns
   with
  | `Ready -> ()
  | `Probe ->
    prof_span st Nyx_obs.Profile.Snapshot_place (fun () ->
        prof_override st Nyx_obs.Profile.Snapshot_place (fun () ->
            (* The static boundary prior is pure analysis — no clock
               charge; the probe below hashes only at feasible indices. *)
            let feasible =
              if st.static_prior then
                Some
                  (Nyx_analysis.Dataflow.feasible_boundaries ~udp:st.prior_udp
                     entry_sched.Corpus.program)
              else None
            in
            let boundaries =
              Executor.state_boundaries ?feasible st.exec
                entry_sched.Corpus.program
            in
            Policy.set_boundaries st.policy ~input_id:entry_sched.Corpus.id
              ~hashed:(Executor.last_probe_hashed st.exec)
              ~skipped:(Executor.last_probe_skipped st.exec)
              ~packets ~boundaries;
            (* The probe replayed the entry once end-to-end. *)
            st.execs <- st.execs + 1;
            if Nyx_obs.Trace.on () then
              Nyx_obs.Trace.instant ~vns:(now st) "snap-probe"
                [
                  ("input", Nyx_obs.Trace.Int entry_sched.Corpus.id);
                  ("boundaries", Nyx_obs.Trace.Int (List.length boundaries));
                ])));
  prof_span st Nyx_obs.Profile.Snapshot_place (fun () ->
      Nyx_sim.Clock.advance (Executor.clock st.exec) Nyx_sim.Cost.place_decide)

let trace_move st =
  match Policy.last_move st.policy with
  | Some (input, from_, to_) when Nyx_obs.Trace.on () ->
    Nyx_obs.Trace.instant ~vns:(now st) "snap-move"
      [
        ("input", Nyx_obs.Trace.Int input);
        ("from", Nyx_obs.Trace.Int from_);
        ("to", Nyx_obs.Trace.Int to_);
      ]
  | _ -> ()

(* One reuse round (§3.4): up to [Policy.reuse_count] mutants of [base]
   — mutate, execute, triage, credit — stopping early at the budget or a
   sync barrier. The first [frozen] ops of [base] are the fixed prefix (0
   for a round from the root snapshot) and [exec] runs one mutant.
   Returns whether any mutant was novel, with the summed [exec_ns] and
   count of the executions, for the dynamic policy's cost model. *)
let reuse_round st ~input_id ~frozen ~max_ops ~exec base =
  let ctx =
    {
      Nyx_spec.Mutation_engine.mx_frozen = frozen;
      mx_max_ops = max_ops;
      mx_dict = st.dict;
      (* Cached newest-first snapshot, taken once per round;
         Corpus.programs only reallocates after growth, so steady-state
         rounds stop paying O(corpus). *)
      mx_corpus = Corpus.programs st.corpus;
    }
  in
  let news = ref false in
  let ns_sum = ref 0 and runs = ref 0 in
  while !runs < Policy.reuse_count && not (paused st) do
    let mutated =
      prof_span st Nyx_obs.Profile.Mutation (fun () ->
          Nyx_obs.Trace.with_span
            ~vns_of:(fun () -> now st)
            "mutation"
            [ ("input", Nyx_obs.Trace.Int input_id) ]
            (fun () ->
              Nyx_spec.Mutation_engine.mutate st.engine st.mut_rng ctx base))
    in
    let r = exec mutated in
    ns_sum := !ns_sum + r.Report.exec_ns;
    incr runs;
    let novel = triage st r mutated in
    Nyx_spec.Mutation_engine.credit st.engine ~novel;
    if novel then news := true
  done;
  (!news, !ns_sum, !runs)

let main_loop st =
  let dyn = Policy.is_dynamic st.policy in
  while not (paused st) do
    maybe_checkpoint st;
    let entry_sched = Corpus.schedule st.corpus st.rng in
    let input_id = entry_sched.Corpus.id in
    let packets = entry_sched.Corpus.packets in
    if dyn && packets >= Policy.min_packets_for_snapshot then
      dynamic_prepare st entry_sched ~packets;
    match Policy.decide st.policy ~input_id ~packets with
    | `Root ->
      trace_move st;
      let news, ns_sum, runs =
        reuse_round st ~input_id ~frozen:0 ~max_ops:st.max_ops
          ~exec:(Executor.run_full st.exec) entry_sched.Corpus.program
      in
      (* Feed the cost model; static policies never observed root rounds
         (notify_no_news was historically session-only) and still don't. *)
      if dyn && runs > 0 then begin
        Policy.observe_full st.policy ~input_id ~ns:(ns_sum / runs);
        if news then Policy.notify_news st.policy ~input_id
        else Policy.notify_no_news st.policy ~input_id
      end
    | `At idx -> (
      trace_move st;
      let with_snap =
        Nyx_spec.Program.with_snapshot_at entry_sched.Corpus.program idx
      in
      let setup0 = now st in
      match Executor.start_session st.exec with_snap with
      | Error r ->
        (* The prefix itself crashed or failed: still a test case. A
           dynamic placement whose prefix keeps failing accrues staleness
           so the cost model drifts away from it. *)
        ignore (triage st r with_snap);
        if dyn then Policy.notify_no_news st.policy ~input_id
      | Ok session ->
        let setup_ns = now st - setup0 in
        let news, ns_sum, runs =
          reuse_round st ~input_id
            ~frozen:(Executor.suffix_start session)
            ~max_ops:(st.max_ops + 1 (* snapshot op *))
            ~exec:(Executor.run_suffix st.exec session)
            with_snap
        in
        Executor.end_session st.exec session;
        if dyn && runs > 0 then
          Policy.observe_session st.policy ~input_id ~idx ~setup_ns
            ~round_ns:(ns_sum / runs)
            ~pages:(Executor.last_snapshot_pages st.exec);
        if news then Policy.notify_news st.policy ~input_id
        else Policy.notify_no_news st.policy ~input_id)
  done

let finish st ~wall_s =
  let w0 = Nyx_parallel.Wall.now_s () in
  sample ~force:true st;
  let virtual_ns = now st in
  let final_edges = Coverage.Cumulative.edge_count st.cumulative in
  let wall_s = wall_s +. (Nyx_parallel.Wall.now_s () -. w0) in
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.span_end ~vns:virtual_ns "campaign"
      [
        ("execs", Nyx_obs.Trace.Int st.execs);
        ("edges", Nyx_obs.Trace.Int final_edges);
        ("corpus", Nyx_obs.Trace.Int (Corpus.size st.corpus));
        ("crash_kinds", Nyx_obs.Trace.Int (List.length st.crashes));
      ];
  {
    Report.fuzzer = Policy.name st.cfg.policy;
    target = Executor.target_name st.exec;
    run_seed = st.cfg.seed;
    timeline = st.timeline;
    exec_timeline = st.exec_timeline;
    final_edges;
    execs = st.execs;
    virtual_ns;
    execs_per_sec =
      (if virtual_ns = 0 then 0.0
       else float_of_int st.execs /. (float_of_int virtual_ns /. 1e9));
    crashes = List.rev st.crashes;
    corpus_size = Corpus.size st.corpus;
    solved_ns = st.solved_ns;
    snapshot_stats = Some (Executor.snapshot_stats st.exec);
    wall_s;
    phase_profile =
      Option.map
        (fun p ->
          Nyx_obs.Profile.snapshot p ~total_virtual_ns:virtual_ns
            ~total_wall_s:wall_s)
        st.prof;
    resilience =
      Option.map
        (fun plan ->
          let t = Nyx_resilience.Plan.totals plan in
          {
            Report.faults_injected = t.Nyx_resilience.Plan.injected;
            faults_recovered = t.Nyx_resilience.Plan.recovered;
            faults_aborted =
              t.Nyx_resilience.Plan.injected - t.Nyx_resilience.Plan.recovered;
            restarts = 0;
            quarantined = false;
            backoff_ns = 0;
          })
        st.plan;
    placement = Policy.placement_stats st.policy;
    mutation =
      Some
        {
          Report.engine = Nyx_spec.Mutation_engine.name st.engine;
          mutators =
            List.map
              (fun (s : Nyx_spec.Mutation_engine.stat) ->
                {
                  Report.mut_name = s.Nyx_spec.Mutation_engine.s_name;
                  mut_attempts = s.Nyx_spec.Mutation_engine.s_attempts;
                  mut_rejected = s.Nyx_spec.Mutation_engine.s_rejected;
                  mut_accepts = s.Nyx_spec.Mutation_engine.s_accepts;
                  mut_credit = s.Nyx_spec.Mutation_engine.s_credit;
                })
              (Nyx_spec.Mutation_engine.stats st.engine);
        };
    peer =
      Option.map
        (fun d ->
          {
            Report.peer_actions = Nyx_peer.Peer_driver.actions d;
            peer_fired = Nyx_peer.Peer_driver.fired_by_site d;
            peer_desyncs = Nyx_peer.Peer_driver.desyncs d;
            peer_restarts = Nyx_peer.Peer_driver.restarts d;
            peer_quarantines = Nyx_peer.Peer_driver.quarantines d;
            peer_backoff_ns = Nyx_peer.Peer_driver.backoff_ns d;
          })
        (Executor.peer_driver st.exec);
  }

let trace_campaign_begin st =
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.span_begin ~vns:(now st) "campaign"
      [
        ("target", Nyx_obs.Trace.Str (Executor.target_name st.exec));
        ("fuzzer", Nyx_obs.Trace.Str (Policy.name st.cfg.policy));
        ("seed", Nyx_obs.Trace.Int st.cfg.seed);
      ]

(* ------------------------------------------------------------------ *)
(* Stepped instances: the resumable unit a shared-corpus fleet drives.
   [start] boots a campaign and runs the seed programs; [step] advances
   the main loop until the virtual clock reaches a sync barrier (or the
   budget); between steps the fleet drains exports and feeds imports;
   [finalize] produces the ordinary campaign result. [run] is exactly
   start + step-to-infinity + finalize, so the unstepped path is
   byte-identical to the historical one. *)

(* [wall_s] sums the wall time spent inside the instance's own calls
   (start or resume, step, sync_charge, import, finalize). A synced fleet
   steps its instances in turn, so the time between calls belongs to the
   peers. *)
type inst = { st : state; mutable wall_s : float }

let own inst f =
  let w0 = Nyx_parallel.Wall.now_s () in
  let r = f () in
  inst.wall_s <- inst.wall_s +. (Nyx_parallel.Wall.now_s () -. w0);
  r

(* Boot the target and build an empty campaign state — the one place a
   [state] is constructed. The RNG chain is drawn in a fixed order: the
   layout cookie, the policy split, the mutator split. [start] continues
   it (the fault-plan split); [resume_inst] overwrites every RNG state
   from the checkpoint, so the cookie is all it keeps — the same draw as
   the original run, which makes the re-boot reproduce the original
   guest layout bit-for-bit. *)
let boot ?custom ?peer ~spec ~profile ~checkpoint ~collect_exports cfg entry =
  let rng = Nyx_sim.Rng.create cfg.seed in
  let layout_cookie = Nyx_sim.Rng.int rng 1_000_000 in
  let prof = if profile then Some (Nyx_obs.Profile.create ()) else None in
  let exec =
    Executor.create ~asan:cfg.asan ~layout_cookie ?custom ?peer ?profile:prof
      ~net_spec:spec entry.Registry.target
  in
  let policy = Policy.create cfg.policy (Nyx_sim.Rng.split rng) in
  let mut_rng = Nyx_sim.Rng.split rng in
  (* Engine construction is pure (no RNG draws, no clock charges): the
     typed engine's analysis passes are static, so arming it changes
     nothing about the draw sequence until the first selection draw. *)
  let engine =
    Engines.create ~weights:cfg.mutator_weights cfg.engine
      spec.Nyx_spec.Net_spec.spec
  in
  let st =
    {
      cfg;
      exec;
      corpus = Corpus.create ();
      cumulative = Coverage.Cumulative.create ();
      timeline = Nyx_sim.Stats.Timeline.create ();
      exec_timeline = Nyx_sim.Stats.Timeline.create ();
      rng;
      policy;
      mut_rng;
      engine;
      dict = [];
      max_ops = 0;
      plan = None;
      (* off for custom handlers AND peer mode: both give packets
         semantics the static dataflow model cannot see *)
      static_prior = custom = None && peer = None;
      prior_udp =
        entry.Registry.target.Target.info.Target.proto = Nyx_netemu.Net.Udp;
      prof;
      ck = checkpoint;
      ck_last = Nyx_sim.Clock.now_ns (Executor.clock exec);
      ck_ordinal = 0;
      execs = 0;
      crashes = [];
      solved_ns = None;
      last_sample = 0;
      stop = false;
      collect_exports;
      pending_exports = [];
      until_ns = max_int;
    }
  in
  { st; wall_s = 0.0 }

let start ?seeds ?custom ?peer ?peer_faults ?(profile = false) ?faults
    ?checkpoint ?(collect_exports = false) cfg entry =
  (* A custom handler reads programs of its own typed spec; resume parses
     corpus entries, and the typed engine generates programs, against the
     raw-network spec. *)
  if Option.is_some custom && Option.is_some checkpoint then
    invalid_arg "Campaign.start: ~custom campaigns cannot checkpoint";
  if Option.is_some custom && (cfg : config).engine = Engines.Typed then
    invalid_arg "Campaign.start: ~custom campaigns cannot use the typed engine";
  let w0 = Nyx_parallel.Wall.now_s () in
  let spec = net_spec () in
  let inst =
    boot ?custom ?peer ~spec ~profile ~checkpoint ~collect_exports cfg entry
  in
  let st = inst.st in
  (* Fault plan: [~faults] plus the [~peer_faults] items (peer encoder
     sites). Its rng split happens ONLY when a plan with at least one
     non-zero rate is armed, so fault-free runs — including peer
     campaigns with every peer rate at zero — keep the historical draw
     sequence (golden results stay byte-identical). *)
  let merged =
    match (faults, peer_faults) with
    | None, sp | sp, None -> sp
    | Some a, Some b -> Some (a @ b)
  in
  (match merged with
  | Some sp when Nyx_resilience.Plan.spec_to_string sp <> "" ->
    let p = Nyx_resilience.Plan.create sp (Nyx_sim.Rng.split st.rng) in
    Executor.arm_faults st.exec p;
    st.plan <- Some p
  | Some _ | None -> ());
  (* Seed the corpus: peer mode seeds with the script's canned honest
     sessions (action-selector payloads), bytecode mode with the
     target's raw packet seeds. *)
  let seed_programs =
    match seeds with
    | Some s -> s
    | None -> (
      match peer with
      | Some script -> Nyx_peer.Peer_script.seed_programs script spec
      | None -> make_seeds entry spec)
  in
  (* Dictionary: the target's shipped tokens plus AFL-style auto-extraction
     from the seeds. *)
  st.dict <-
    Nyx_spec.Auto_dict.merge
      (List.map Bytes.of_string entry.Registry.target.Target.info.Target.dict)
      (Nyx_spec.Auto_dict.extract seed_programs);
  (* The input-length cap scales with the seeds: protocols with long
     message sequences (Mario levels, IPC sessions) need room beyond the
     default. *)
  st.max_ops <-
    List.fold_left
      (fun acc p -> max acc (2 * Array.length p.Nyx_spec.Program.ops))
      24 seed_programs;
  trace_campaign_begin st;
  List.iter
    (fun program ->
      if not (over_budget st) then begin
        let r = Executor.run_full st.exec program in
        ignore (triage st r program)
      end)
    seed_programs;
  (* Ensure the corpus is never empty: an empty one-connection program. *)
  if Corpus.size st.corpus = 0 then
    ignore
      (Corpus.add st.corpus
         ~program:(Nyx_spec.Net_spec.seed_of_packets spec [])
         ~exec_ns:0 ~discovered_ns:(now st) ~state_code:0);
  inst.wall_s <- Nyx_parallel.Wall.now_s () -. w0;
  inst

let step inst ~until_ns =
  own inst (fun () ->
      inst.st.until_ns <- until_ns;
      main_loop inst.st)

let finished inst = over_budget inst.st
let clock_ns inst = now inst.st
let execs inst = inst.st.execs
let finalize inst = finish inst.st ~wall_s:inst.wall_s

(* At a sync barrier the instance is paused at the loop top (no open
   session, per-execution state about to be reset), which is exactly the
   state [capture] is valid in. *)
let checkpoint_now inst = capture inst.st

let drain_exports inst =
  let es = List.rev inst.st.pending_exports in
  inst.st.pending_exports <- [];
  es

(* Charge the virtual cost of judging [programs] candidates totalling
   [cells] saved hit cells against a shared map — what an exporting
   instance pays at a sync barrier for the fleet-wide novelty check. *)
let sync_charge inst ~programs ~cells =
  if programs > 0 || cells > 0 then
    let st = inst.st in
    own inst (fun () ->
        prof_span st Nyx_obs.Profile.Corpus_sync (fun () ->
            Nyx_sim.Clock.advance (Executor.clock st.exec)
              ((programs * Nyx_sim.Cost.sync_judge_program)
              + (cells * Nyx_sim.Cost.sync_merge_per_cell))))

(* Import one peer export: judge it against this instance's own virgin
   map (O(saved cells), no re-execution) and adopt it into the corpus if
   it is coverage-novel here. All work is charged to the virtual clock
   under the [Corpus_sync] phase. Returns whether it was adopted. *)
let import inst (e : export) =
  let st = inst.st in
  own inst (fun () ->
      prof_span st Nyx_obs.Profile.Corpus_sync (fun () ->
          Nyx_sim.Clock.advance (Executor.clock st.exec)
            (Nyx_sim.Cost.sync_judge_program
            + (e.ex_cells * Nyx_sim.Cost.sync_merge_per_cell));
          let novel = Coverage.Cumulative.merge_saved st.cumulative e.ex_cov in
          if novel then begin
            Nyx_sim.Clock.advance (Executor.clock st.exec)
              Nyx_sim.Cost.sync_import_program;
            ignore
              (Corpus.add st.corpus ~program:e.ex_program ~exec_ns:e.ex_exec_ns
                 ~discovered_ns:(now st) ~state_code:e.ex_state_code);
            sample ~force:true st
          end;
          novel))

let run_to_end inst =
  step inst ~until_ns:max_int;
  finalize inst

let run ?seeds ?custom ?peer ?peer_faults ?(profile = false) ?faults ?checkpoint
    cfg entry =
  run_to_end
    (start ?seeds ?custom ?peer ?peer_faults ~profile ?faults ?checkpoint cfg
       entry)

let resume_inst ?(profile = false) ?checkpoint
    ?(collect_exports = false) (ckpt : Checkpoint.t) entry =
  let target_name = entry.Registry.target.Target.info.Target.name in
  if ckpt.Checkpoint.c_target <> target_name then
    invalid_arg
      (Printf.sprintf "Campaign.resume: checkpoint is for target %S, not %S"
         ckpt.Checkpoint.c_target target_name);
  let cfg = config_of_checkpoint ckpt in
  (* Peer mode is inferred from the checkpoint (the c_peer field is Some
     exactly when the original campaign ran with a peer script), so
     resumers never need to re-supply the mode. *)
  let peer =
    match ckpt.Checkpoint.c_peer with
    | None -> None
    | Some _ -> (
      match Nyx_peer.Peer_script.find ckpt.Checkpoint.c_target with
      | Some script -> Some script
      | None ->
        invalid_arg
          (Printf.sprintf
             "Campaign.resume: checkpoint has peer state but target %S has no \
              peer script"
             ckpt.Checkpoint.c_target))
  in
  let w0 = Nyx_parallel.Wall.now_s () in
  let spec = net_spec () in
  let inst = boot ?peer ~spec ~profile ~checkpoint ~collect_exports cfg entry in
  restore ~spec inst.st ckpt;
  trace_campaign_begin inst.st;
  inst.wall_s <- Nyx_parallel.Wall.now_s () -. w0;
  inst

let resume ?(profile = false) ?checkpoint (ckpt : Checkpoint.t) entry =
  run_to_end (resume_inst ~profile ?checkpoint ckpt entry)

let median_result results =
  match results with
  | [] -> invalid_arg "Campaign.median_result: no results"
  | _ ->
    let sorted =
      List.sort
        (fun a b -> compare a.Report.final_edges b.Report.final_edges)
        results
    in
    List.nth sorted (List.length sorted / 2)
