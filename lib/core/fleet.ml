(* §5.3 parallel fleets: N instances share an immutable root snapshot and
   differ only in their RNG seed. Each instance owns its virtual clock,
   VM and corpus, so instances fan out across domains (Nyx_parallel.Pool);
   results are merged in submission order, making the outcome identical
   whatever NYX_DOMAINS says.

   Two modes:

   - Independent (sync off, the historical default): instances never
     communicate. The supervisor (ISSUE: nyx_resilience) restarts an
     instance that dies with an exception after a capped exponential
     virtual-time backoff, up to [max_restarts] retries, then quarantines
     it and reports partial results.

   - Shared-corpus (ISSUE: corpus-sync epochs): instances run their own
     campaigns but pause at periodic virtual-clock barriers (every
     [sync_ns]); at each barrier, in instance-index order, the
     coordinator drains the programs that grew each instance's corpus,
     judges them against a fleet-wide virgin map via the O(touched)
     saved-journal merge, and rebroadcasts the fleet-novel ones to every
     other live instance. All cross-instance communication happens at
     barriers on the coordinator, so the fleet is bit-reproducible at any
     NYX_DOMAINS. *)

module Coverage = Nyx_targets.Coverage
module Pool = Nyx_parallel.Pool

type sync_epoch = {
  se_epoch : int;
  se_at_ns : int;
  se_exports : int;
  se_broadcast : int;
  se_imports : int;
  se_union_edges : int;
  se_total_execs : int;
}

type outcome = {
  instances : int;
  first_solve_ns : int option;
  solves : int;
  total_execs : int;
  restarts : int;
  quarantined : int;
  results : Report.campaign_result list;
  wall_s : float; (* real wall-clock for the whole fleet *)
  domains : int;
  union_edges : int option;
  sync_epochs : sync_epoch list;
  work_ns : int;
  makespan_ns : int;
}

(* Simulated fleet makespan: greedy list-scheduling of per-instance
   virtual-time segments onto [workers] identical workers (longest-
   processing-time order is NOT used — segments arrive in instance order,
   matching what a real dispatcher sees). With one worker this is the
   serial sum; the deterministic speedup the bench gates on is
   work_ns / makespan_ns, which honestly degrades under imbalance
   (stragglers, early finishers, tiny epochs). *)
let parallel_span ~workers segs =
  if workers <= 1 then List.fold_left ( + ) 0 segs
  else begin
    let load = Array.make workers 0 in
    List.iter
      (fun s ->
        let m = ref 0 in
        for w = 1 to workers - 1 do
          if load.(w) < load.(!m) then m := w
        done;
        load.(!m) <- load.(!m) + s)
      segs;
    Array.fold_left max 0 load
  end

let exn_brief exn =
  match Printexc.to_string exn with
  | s when String.length s > 200 -> String.sub s 0 200 ^ "..."
  | s -> s

let derived_config config i =
  { config with Campaign.seed = config.Campaign.seed + (1000 * i) }

(* The one outcome constructor, for both modes: the solve and exec
   summaries derive from the survivors' results. *)
let make_outcome ~instances ~workers ~restarts ~quarantined ~union_edges
    ~sync_epochs ~work_ns ~makespan_ns results t0 =
  let solve_times = List.filter_map (fun r -> r.Report.solved_ns) results in
  {
    instances;
    first_solve_ns =
      (match solve_times with
      | [] -> None
      | ts -> Some (List.fold_left min max_int ts));
    solves = List.length solve_times;
    total_execs = List.fold_left (fun acc r -> acc + r.Report.execs) 0 results;
    restarts;
    quarantined;
    results;
    wall_s = Nyx_parallel.Wall.now_s () -. t0;
    domains = workers;
    union_edges;
    sync_epochs;
    work_ns;
    makespan_ns;
  }

(* The "fleet" trace span around one run or resume. *)
let with_fleet_trace ~instances ~sync_ns entry f =
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.span_begin "fleet"
      [
        ( "target",
          Nyx_obs.Trace.Str
            entry.Nyx_targets.Registry.target.Nyx_targets.Target.info
              .Nyx_targets.Target.name );
        ("instances", Nyx_obs.Trace.Int instances);
        ("sync_ns", Nyx_obs.Trace.Int (Option.value ~default:0 sync_ns));
      ];
  let outcome = f () in
  if Nyx_obs.Trace.on () then begin
    Nyx_obs.Trace.span_end "fleet"
      [
        ("solves", Nyx_obs.Trace.Int outcome.solves);
        ("total_execs", Nyx_obs.Trace.Int outcome.total_execs);
        ( "first_solve_ns",
          Nyx_obs.Trace.Int (Option.value ~default:(-1) outcome.first_solve_ns) );
        ("restarts", Nyx_obs.Trace.Int outcome.restarts);
        ("quarantined", Nyx_obs.Trace.Int outcome.quarantined);
      ];
    (* Worker-domain buffers flushed at their campaign span ends; make the
       fleet's own events durable too. *)
    Nyx_obs.Trace.flush ()
  end;
  outcome

(* ------------------------------------------------------------------ *)
(* Independent mode (sync off): the historical supervised fleet.       *)

let backoff_base_ns = 1_000_000_000
let backoff_cap_ns = 60_000_000_000

(* Run one instance under supervision. Never raises: the pool's
   cancel-on-first-error contract must not see instance failures.
   Returns (survivor result if any, restarts used, total backoff_ns). *)
let supervise ~max_restarts ~run_one idx cfg =
  let rec go attempt backoff_ns =
    match run_one cfg with
    | result -> (Some result, attempt, backoff_ns)
    | exception exn ->
      if attempt >= max_restarts then begin
        Printf.eprintf
          "nyx: fleet instance %d (seed %d) failed (%s); quarantined after %d \
           restarts\n\
           %!"
          idx cfg.Campaign.seed (exn_brief exn) attempt;
        (None, attempt, backoff_ns)
      end
      else begin
        let d =
          Nyx_resilience.Backoff.delay_ns ~base_ns:backoff_base_ns ~cap_ns:backoff_cap_ns
            ~attempt
        in
        Printf.eprintf
          "nyx: fleet instance %d (seed %d) failed (%s); restarting (attempt \
           %d/%d) after %d ns backoff\n\
           %!"
          idx cfg.Campaign.seed (exn_brief exn) (attempt + 1) max_restarts d;
        go (attempt + 1) (backoff_ns + d)
      end
  in
  go 0 0

(* Fold the supervisor's bookkeeping into the survivor's resilience
   block, so per-instance reports carry their own restart history. *)
let amend_result (r : Report.campaign_result) ~restarts ~backoff_ns =
  if restarts = 0 then r
  else
    let base =
      match r.Report.resilience with
      | Some b -> b
      | None ->
        {
          Report.faults_injected = 0;
          faults_recovered = 0;
          faults_aborted = 0;
          restarts = 0;
          quarantined = false;
          backoff_ns = 0;
        }
    in
    { r with Report.resilience = Some { base with Report.restarts; backoff_ns } }

let run_independent ~instances ~workers ~max_restarts ~run_instance ~peer
    ~peer_faults ~profile ~config entry t0 =
  let run_one =
    match run_instance with
    | Some f -> f
    | None -> fun cfg -> Campaign.run ?peer ?peer_faults ~profile cfg entry
  in
  let raw =
    Pool.map_list ~domains:workers
      (fun i -> supervise ~max_restarts ~run_one i (derived_config config i))
      (List.init instances Fun.id)
  in
  let restarts = List.fold_left (fun acc (_, r, _) -> acc + r) 0 raw in
  let quarantined =
    List.fold_left
      (fun acc (res, _, _) -> if res = None then acc + 1 else acc)
      0 raw
  in
  let results =
    List.filter_map
      (fun (res, restarts, backoff_ns) ->
        Option.map (amend_result ~restarts ~backoff_ns) res)
      raw
  in
  let segs = List.map (fun r -> r.Report.virtual_ns) results in
  make_outcome ~instances ~workers ~restarts ~quarantined ~union_edges:None
    ~sync_epochs:[] ~work_ns:(List.fold_left ( + ) 0 segs)
    ~makespan_ns:(parallel_span ~workers segs) results t0

(* ------------------------------------------------------------------ *)
(* Shared-corpus mode: sync epochs on the virtual clock.               *)

type checkpoint_cfg = {
  fc_path : string;
  fc_every : int;  (* epochs between checkpoint writes *)
  fc_on_write : (int -> unit) option;
}

let checkpointing ?on_write ~path ~every_epochs () =
  if every_epochs <= 0 then
    invalid_arg "Fleet.checkpointing: every_epochs must be positive";
  { fc_path = path; fc_every = every_epochs; fc_on_write = on_write }

type slot = {
  idx : int;
  mutable inst : Campaign.inst option; (* None once quarantined *)
  mutable prev_ns : int; (* clock at the last segment accounting *)
}

type acc = {
  mutable epoch : int;
  mutable rows : sync_epoch list; (* newest first *)
  mutable work_ns : int;
  mutable makespan_ns : int;
  mutable ck_ordinal : int;
}

type sync_state = {
  slots : slot array;
  union : Coverage.Cumulative.t;
  acc : acc;
  sync_ns : int;
  sync_import : bool;
}

(* Fleet checkpoint codec: magic + Nyx_sim.Wire's big-endian int64
   framing, one embedded Campaign checkpoint per live slot, written
   atomically. *)

module Wire = Nyx_sim.Wire

let fleet_magic = "NYXFLT2"

let encode_fleet st : bytes =
  let b = Buffer.create 262_144 in
  let put = Wire.add_int b in
  Buffer.add_string b fleet_magic;
  put st.sync_ns;
  put (if st.sync_import then 1 else 0);
  put st.acc.epoch;
  put st.acc.work_ns;
  put st.acc.makespan_ns;
  put st.acc.ck_ordinal;
  Wire.add_bytes b (Coverage.Cumulative.state_bytes st.union);
  Wire.add_list
    (fun b r ->
      List.iter (Wire.add_int b)
        [
          r.se_epoch;
          r.se_at_ns;
          r.se_exports;
          r.se_broadcast;
          r.se_imports;
          r.se_union_edges;
          r.se_total_execs;
        ])
    b (List.rev st.acc.rows);
  Wire.add_list
    (fun b s ->
      match s.inst with
      | None -> Wire.add_int b 0
      | Some i ->
        Wire.add_int b 1;
        Wire.add_int b s.prev_ns;
        Wire.add_bytes b (Checkpoint.encode (Campaign.checkpoint_now i)))
    b (Array.to_list st.slots);
  Buffer.to_bytes b

type decoded_fleet = {
  d_sync_ns : int;
  d_sync_import : bool;
  d_acc : acc;
  d_virgin : bytes;
  d_slots : (int * Checkpoint.t) option array; (* prev_ns + checkpoint *)
}

let decode_row c =
  let get () = Wire.get_int c in
  let se_epoch = get () in
  let se_at_ns = get () in
  let se_exports = get () in
  let se_broadcast = get () in
  let se_imports = get () in
  let se_union_edges = get () in
  let se_total_execs = get () in
  {
    se_epoch;
    se_at_ns;
    se_exports;
    se_broadcast;
    se_imports;
    se_union_edges;
    se_total_execs;
  }

let decode_slot c =
  if Wire.get_int c = 0 then None
  else begin
    let prev_ns = Wire.get_int c in
    Some (prev_ns, Checkpoint.decode (Wire.get_bytes c))
  end

let decode_fleet (buf : bytes) : (decoded_fleet, string) result =
  match
    let c = Wire.cursor ~magic:fleet_magic buf in
    let get () = Wire.get_int c in
    let d_sync_ns = get () in
    let d_sync_import = get () <> 0 in
    let epoch = get () in
    let work_ns = get () in
    let makespan_ns = get () in
    let ck_ordinal = get () in
    let d_virgin = Wire.get_bytes c in
    let rows = Wire.get_list decode_row c in
    let d_slots = Array.of_list (Wire.get_list decode_slot c) in
    Wire.expect_end c;
    {
      d_sync_ns;
      d_sync_import;
      d_acc =
        { epoch; rows = List.rev rows; work_ns; makespan_ns; ck_ordinal };
      d_virgin;
      d_slots;
    }
  with
  | d -> Ok d
  | exception Wire.Corrupt m -> Error ("fleet checkpoint: " ^ m)

let write_fleet_checkpoint st ck =
  match Nyx_resilience.Atomic_io.write_file ck.fc_path (encode_fleet st) with
  | Ok () ->
    st.acc.ck_ordinal <- st.acc.ck_ordinal + 1;
    if Nyx_obs.Trace.on () then
      Nyx_obs.Trace.instant
        ~vns:(st.acc.epoch * st.sync_ns)
        "fleet-checkpoint"
        [
          ("ordinal", Nyx_obs.Trace.Int st.acc.ck_ordinal);
          ("epoch", Nyx_obs.Trace.Int st.acc.epoch);
        ];
    (match ck.fc_on_write with Some f -> f st.acc.ck_ordinal | None -> ())
  | Error m ->
    (* Checkpointing is a safety net, not a dependency: keep fuzzing. *)
    Printf.eprintf "nyx: fleet checkpoint write failed (%s); continuing\n%!" m

let slot_unfinished s =
  match s.inst with Some i -> not (Campaign.finished i) | None -> false

let any_unfinished st = Array.exists slot_unfinished st.slots

(* One sync barrier, sequentially on the coordinator in instance-index
   order: drain exports, judge them against the fleet union map, charge
   the exporters, rebroadcast fleet-novel programs to the other live
   instances. Returns the epoch's row. *)
let barrier st ~until =
  let n_exports = ref 0 in
  let n_imports = ref 0 in
  let broadcast = ref [] in
  Array.iter
    (fun s ->
      match s.inst with
      | None -> ()
      | Some i -> (
        match Campaign.drain_exports i with
        | [] -> ()
        | es ->
          let progs = ref 0 and cells = ref 0 in
          List.iter
            (fun (e : Campaign.export) ->
              incr progs;
              cells := !cells + e.Campaign.ex_cells;
              incr n_exports;
              if Coverage.Cumulative.merge_saved st.union e.Campaign.ex_cov
              then broadcast := (s.idx, e) :: !broadcast)
            es;
          (* The exporter pays for the fleet-map novelty judging of its
             own candidates; in observer mode (sync_import = false) the
             union merge is pure bookkeeping and charges nothing, so the
             observed fleet behaves exactly like a stepped independent
             one. *)
          if st.sync_import && not (Campaign.finished i) then
            Campaign.sync_charge i ~programs:!progs ~cells:!cells))
    st.slots;
  let broadcast = List.rev !broadcast in
  if st.sync_import then
    Array.iter
      (fun s ->
        match s.inst with
        | Some i when not (Campaign.finished i) ->
          List.iter
            (fun (j, e) ->
              if j <> s.idx && Campaign.import i e then incr n_imports)
            broadcast
        | _ -> ())
      st.slots;
  {
    se_epoch = st.acc.epoch;
    se_at_ns = until;
    se_exports = !n_exports;
    se_broadcast = List.length broadcast;
    se_imports = !n_imports;
    se_union_edges = Coverage.Cumulative.edge_count st.union;
    se_total_execs =
      Array.fold_left
        (fun t s ->
          match s.inst with Some i -> t + Campaign.execs i | None -> t)
        0 st.slots;
  }

(* Polymorphic fan-out over the fleet's persistent pool (used at several
   element types: boots, steps), hence the polymorphic record field. *)
type mapper = { fmap : 'a 'b. ('a -> 'b) -> 'a array -> 'b array }

(* The epoch loop shared by [run ~sync_ns] and [resume]. [fleet_map]
   fans the step tasks out (persistent pool or sequential). *)
let drive st ~fleet_map ~workers ~checkpoint =
  while any_unfinished st do
    st.acc.epoch <- st.acc.epoch + 1;
    let until = st.acc.epoch * st.sync_ns in
    let stepping =
      Array.of_list
        (List.filter
           (fun s ->
             match s.inst with
             | Some i -> not (Campaign.finished i) && Campaign.clock_ns i < until
             | None -> false)
           (Array.to_list st.slots))
    in
    (* Steps never raise into the pool: a dying instance is quarantined
       at the barrier (deterministic failures would only recur on
       restart, so sync mode skips the supervisor's retry loop). *)
    let errors =
      fleet_map.fmap
        (fun s ->
          match s.inst with
          | Some i -> ( try Campaign.step i ~until_ns:until; None with e -> Some e)
          | None -> None)
        stepping
    in
    Array.iteri
      (fun k err ->
        match err with
        | Some exn ->
          let s = stepping.(k) in
          Printf.eprintf
            "nyx: fleet instance %d failed (%s); quarantined at sync epoch %d\n%!"
            s.idx (exn_brief exn) st.acc.epoch;
          s.inst <- None
        | None -> ())
      errors;
    (* Segment accounting: everything each live instance's clock advanced
       since the previous barrier (step work plus the import/judge costs
       charged at that barrier) is one schedulable segment. *)
    let segs =
      Array.to_list st.slots
      |> List.filter_map (fun s ->
             match s.inst with
             | Some i ->
               let c = Campaign.clock_ns i in
               let d = c - s.prev_ns in
               s.prev_ns <- c;
               Some d
             | None -> None)
    in
    st.acc.work_ns <- st.acc.work_ns + List.fold_left ( + ) 0 segs;
    st.acc.makespan_ns <- st.acc.makespan_ns + parallel_span ~workers segs;
    if Nyx_obs.Trace.on () then
      Nyx_obs.Trace.span_begin ~vns:until "sync-epoch"
        [
          ("epoch", Nyx_obs.Trace.Int st.acc.epoch);
          ("stepped", Nyx_obs.Trace.Int (Array.length stepping));
        ];
    let row = barrier st ~until in
    st.acc.rows <- row :: st.acc.rows;
    if Nyx_obs.Trace.on () then
      Nyx_obs.Trace.span_end ~vns:until "sync-epoch"
        [
          ("exports", Nyx_obs.Trace.Int row.se_exports);
          ("broadcast", Nyx_obs.Trace.Int row.se_broadcast);
          ("imports", Nyx_obs.Trace.Int row.se_imports);
          ("union_edges", Nyx_obs.Trace.Int row.se_union_edges);
        ];
    match checkpoint with
    | Some ck when st.acc.epoch mod ck.fc_every = 0 && any_unfinished st ->
      write_fleet_checkpoint st ck
    | _ -> ()
  done;
  (* Final drain: when every instance finished before the first barrier
     (tiny budgets), exports discovered during seeding still reach the
     union map. In the normal flow the last barrier already drained
     everything and this is a no-op. *)
  Array.iter
    (fun s ->
      match s.inst with
      | Some i ->
        List.iter
          (fun (e : Campaign.export) ->
            ignore (Coverage.Cumulative.merge_saved st.union e.Campaign.ex_cov))
          (Campaign.drain_exports i)
      | None -> ())
    st.slots

(* Persistent pool for the whole synced run: worker domains are spawned
   once and reused across every epoch, and each epoch's fan-out goes in
   [instances / workers]-task batches, which amortize the wake-ups. *)
let with_fleet_pool ~workers ~instances f =
  if workers > 1 && instances > 1 then
    let batch = max 1 (instances / workers) in
    Pool.with_pool ~domains:(min workers instances) (fun pool ->
        f { fmap = (fun g arr -> Pool.map_pool pool ~batch g arr) })
  else f { fmap = (fun g arr -> Array.map g arr) }

(* The synced path shared by [run ~sync_ns] and [resume]: boot every slot
   in parallel, drive the epoch loop, finalize. [boot i] returns slot
   [i]'s instance and the clock its first segment is measured from, or
   [None] for a slot that stays dead. Boots are pure per slot, so the
   fan-out cannot perturb determinism; a failing boot quarantines its
   slot immediately. *)
let run_sync ~instances ~workers ~checkpoint ~union ~acc ~sync_ns
    ~sync_import ~boot t0 =
  let st =
    {
      slots = Array.init instances (fun idx -> { idx; inst = None; prev_ns = 0 });
      union;
      acc;
      sync_ns;
      sync_import;
    }
  in
  with_fleet_pool ~workers ~instances (fun fleet_map ->
      let boot_slot s =
        try boot s.idx
        with exn ->
          Printf.eprintf "nyx: fleet instance %d boot failed (%s); quarantined\n%!"
            s.idx (exn_brief exn);
          None
      in
      Array.iter2
        (fun s b ->
          Option.iter
            (fun (prev_ns, inst) ->
              s.inst <- Some inst;
              s.prev_ns <- prev_ns)
            b)
        st.slots
        (fleet_map.fmap boot_slot st.slots);
      drive st ~fleet_map ~workers ~checkpoint);
  let results =
    Array.to_list st.slots
    |> List.filter_map (fun s -> Option.map Campaign.finalize s.inst)
  in
  let quarantined =
    Array.fold_left (fun n s -> if s.inst = None then n + 1 else n) 0 st.slots
  in
  make_outcome ~instances ~workers ~restarts:0 ~quarantined
    ~union_edges:(Some (Coverage.Cumulative.edge_count st.union))
    ~sync_epochs:(List.rev st.acc.rows) ~work_ns:st.acc.work_ns
    ~makespan_ns:st.acc.makespan_ns results t0

(* ------------------------------------------------------------------ *)

let run ?(instances = 52) ?domains ?(max_restarts = 3) ?run_instance ?peer
    ?peer_faults ?(profile = false) ?sync_ns ?(sync_import = true) ?checkpoint
    ~config entry =
  let t0 = Nyx_parallel.Wall.now_s () in
  let workers = Pool.resolve domains in
  with_fleet_trace ~instances ~sync_ns entry (fun () ->
      match sync_ns with
      | None ->
        if checkpoint <> None then
          invalid_arg "Fleet.run: ~checkpoint requires ~sync_ns";
        run_independent ~instances ~workers ~max_restarts ~run_instance ~peer
          ~peer_faults ~profile ~config entry t0
      | Some s when s <= 0 -> invalid_arg "Fleet.run: sync_ns must be positive"
      | Some sync_ns ->
        if run_instance <> None then
          invalid_arg "Fleet.run: ~run_instance is independent-mode only";
        run_sync ~instances ~workers ~checkpoint
          ~union:(Coverage.Cumulative.create ())
          ~acc:{ epoch = 0; rows = []; work_ns = 0; makespan_ns = 0; ck_ordinal = 0 }
          ~sync_ns ~sync_import t0 ~boot:(fun i ->
            Some
              ( 0,
                Campaign.start ?peer ?peer_faults ~profile ~collect_exports:true
                  (derived_config config i) entry )))

let resume ?domains ?(profile = false) ?checkpoint ~path entry =
  let t0 = Nyx_parallel.Wall.now_s () in
  let d =
    match Result.bind (Nyx_resilience.Atomic_io.read_file path) decode_fleet with
    | Ok d -> d
    | Error m -> invalid_arg ("Fleet.resume: " ^ m)
  in
  let instances = Array.length d.d_slots in
  let union = Coverage.Cumulative.create () in
  Coverage.Cumulative.load_state union d.d_virgin;
  with_fleet_trace ~instances ~sync_ns:(Some d.d_sync_ns) entry (fun () ->
      (* Surviving instances re-boot deterministically from their
         checkpoints, exactly like Campaign.resume. *)
      run_sync ~instances ~workers:(Pool.resolve domains) ~checkpoint
        ~union ~acc:d.d_acc ~sync_ns:d.d_sync_ns ~sync_import:d.d_sync_import t0
        ~boot:(fun i ->
          Option.map
            (fun (prev_ns, ckpt) ->
              (prev_ns, Campaign.resume_inst ~profile ~collect_exports:true ckpt entry))
            d.d_slots.(i)))
