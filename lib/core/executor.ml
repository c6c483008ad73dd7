open Nyx_targets
open Nyx_netemu

type t = {
  clock : Nyx_sim.Clock.t;
  ctx : Ctx.t;
  engine : Nyx_snapshot.Engine.t;
  ops : Op_handlers.t;
  handlers : Nyx_spec.Interp.handlers;  (* built once from [ops] *)
  target : Target.t;
  profile : Nyx_obs.Profile.t option;
  peer : Nyx_peer.Peer_driver.t option;
  mutable probe_hashed : int; (* state hashes taken by the last probe *)
  mutable probe_skipped : int; (* indices the static prior let it skip *)
}

(* Phase attribution (observational only: reads the clock, never advances
   it). One branch per site when profiling is off. *)
let prof t phase f =
  match t.profile with
  | None -> f ()
  | Some p -> Nyx_obs.Profile.span p phase t.clock f

let create ?(asan = false) ?(layout_cookie = 0) ?custom ?peer ?profile ~net_spec:_
    target =
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create ~config:Nyx_vm.Vm.fuzz_config clock in
  let net = Net.create ~backend:Net.Emulated ~boundaries:true clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  Net.register_aux net aux;
  let ctx = Ctx.of_vm ~asan ~layout_cookie ~net vm in
  let runtime = Target.boot target ctx in
  Target.pump runtime;
  (* Peer mode: build the cooperating-peer driver and register its
     session state as aux snapshot state *before* the root snapshot is
     taken, so every snapshot (root and incremental) captures the peer
     mid-conversation along with the kernel socket state. *)
  let peer =
    Option.map
      (fun script ->
        let d = Nyx_peer.Peer_driver.create ?profile ~clock ~net ~runtime ~target script in
        Nyx_peer.Peer_driver.register_aux d aux;
        d)
      peer
  in
  (* The agent detected the first read on the attack surface: take the
     root snapshot here, exactly where Nyx-Net places it automatically. *)
  let engine = Nyx_snapshot.Engine.create vm aux in
  let take_snapshot =
    match profile with
    | None -> fun () -> Nyx_snapshot.Engine.take_incremental engine
    | Some p ->
      fun () ->
        Nyx_obs.Profile.span p Nyx_obs.Profile.Snapshot_create clock (fun () ->
            Nyx_snapshot.Engine.take_incremental engine)
  in
  (* In peer mode the driver claims every connect/packet/close opcode
     (it wins over any [custom] handler — the two are not composed). *)
  let custom =
    match peer with
    | Some d -> Some (Nyx_peer.Peer_driver.handler d)
    | None -> custom
  in
  let ops =
    Op_handlers.create ~net ~runtime ~target ~on_snapshot:take_snapshot ?custom ()
  in
  {
    clock;
    ctx;
    engine;
    ops;
    handlers = Op_handlers.handlers ops;
    target;
    profile;
    peer;
    probe_hashed = 0;
    probe_skipped = 0;
  }

let clock t = t.clock
let profile t = t.profile
let coverage t = t.ctx.Ctx.cov
let state_code t = t.ctx.Ctx.state_code
let snapshot_stats t = Nyx_snapshot.Engine.stats t.engine
let target_name t = t.target.Target.info.Target.name
let root_stored_bytes t = Nyx_snapshot.Engine.root_stored_bytes t.engine
let mirror_bytes t = Nyx_snapshot.Engine.mirror_pages t.engine * Nyx_vm.Page.size

let reset_exec_state t =
  Coverage.reset t.ctx.Ctx.cov;
  t.ctx.Ctx.state_code <- 0;
  Op_handlers.reset t.ops

(* ------------------------------------------------------------------ *)
(* Fault injection and recovery.                                       *)

let arm_faults t plan =
  Nyx_vm.Vm.arm_faults (Nyx_snapshot.Engine.vm t.engine) plan;
  Option.iter (fun d -> Nyx_peer.Peer_driver.arm d plan) t.peer

let peer_driver t = t.peer
let faults t = Nyx_vm.Vm.faults (Nyx_snapshot.Engine.vm t.engine)

let save_engine t = Nyx_snapshot.Engine.save t.engine
let load_engine t data = Nyx_snapshot.Engine.load t.engine data

(* Guest wedge: the target stops responding for the whole hang budget.
   The per-execution snapshot reset unconditionally clears a wedge, so it
   is recovered on the spot — after charging the budgeted wait — and the
   execution reports as a hang without running. *)
let wedge_status t =
  match faults t with
  | None -> None
  | Some plan -> (
    match
      Nyx_resilience.Plan.fire plan Nyx_resilience.Fault.Guest_wedge
        ~vns:(Nyx_sim.Clock.now_ns t.clock)
    with
    | None -> None
    | Some f ->
      Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.guest_wedge;
      Nyx_resilience.Plan.record_recovered plan f;
      if Nyx_obs.Trace.on () then
        Nyx_obs.Trace.instant
          ~vns:(Nyx_sim.Clock.now_ns t.clock)
          "fault-wedge"
          [ ("seq", Nyx_obs.Trace.Int f.Nyx_resilience.Fault.seq) ];
      Some Report.Hang)

(* Graceful degradation (the paper's recreate-on-demand, §3.4): the active
   incremental snapshot carries an injected fault — discard it, rebuild it
   from the root by replaying the program's frozen prefix, and carry on.
   Recovery runs with the plan suppressed (it cannot itself fault); its
   full cost — root restore, prefix replay, snapshot re-take — is charged
   to virtual time like any other work. *)
let recover_incremental t program =
  match faults t with
  | None -> assert false (* Fault.Injected is only raised with a plan armed *)
  | Some plan ->
    let n_faults = List.length (Nyx_snapshot.Engine.pending t.engine) in
    Nyx_resilience.Plan.suppressed plan (fun () ->
        (* restore_root discards the faulted incremental and retires its
           pending faults as recovered. *)
        Nyx_snapshot.Engine.restore_root t.engine;
        reset_exec_state t;
        ignore (Nyx_spec.Interp.run_until_snapshot program t.handlers));
    if Nyx_obs.Trace.on () then
      Nyx_obs.Trace.instant
        ~vns:(Nyx_sim.Clock.now_ns t.clock)
        "fault-recovered"
        [ ("faults", Nyx_obs.Trace.Int n_faults) ]

let status_of_run f =
  try
    f ();
    Report.Pass
  with
  | Ctx.Crash { kind = "hang"; detail = _ } -> Report.Hang
  | Ctx.Crash { kind; detail } -> Report.Crash { kind; detail }
  | Nyx_vm.Guest_heap.Heap_oob { base; off; len } ->
    Report.Crash
      {
        kind = "asan-heap-oob";
        detail = Printf.sprintf "region %d offset %d len %d" base off len;
      }
  | Nyx_vm.Memory.Fault { addr; size } ->
    Report.Crash { kind = "segfault"; detail = Printf.sprintf "addr %d size %d" addr size }
  | Nyx_vm.Guest_heap.Out_of_memory -> Report.Crash { kind = "oom"; detail = "guest heap" }
  | Net.Would_block fd ->
    Report.Crash
      { kind = "protocol-desync"; detail = Printf.sprintf "blocking read on fd %d" fd }
  | Net.Bad_fd fd -> Report.Crash { kind = "bad-fd"; detail = Printf.sprintf "fd %d" fd }

let status_str = function
  | Report.Pass -> "pass"
  | Report.Hang -> "hang"
  | Report.Crash { kind; _ } -> kind

let run_full t program =
  let t0 = Nyx_sim.Clock.now_ns t.clock in
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.span_begin ~vns:t0 "exec" [ ("mode", Nyx_obs.Trace.Str "full") ];
  prof t Nyx_obs.Profile.Reset (fun () ->
      Nyx_snapshot.Engine.restore_root t.engine;
      reset_exec_state t);
  let status =
    match wedge_status t with
    | Some status -> status
    | None ->
      prof t Nyx_obs.Profile.Suffix_exec (fun () ->
          status_of_run (fun () ->
              ignore (Nyx_spec.Interp.run program t.handlers)))
  in
  (* If the program took an incremental snapshot mid-run, drop it. *)
  if Nyx_snapshot.Engine.has_incremental t.engine then
    prof t Nyx_obs.Profile.Reset (fun () -> Nyx_snapshot.Engine.restore_root t.engine);
  let exec_ns = Nyx_sim.Clock.now_ns t.clock - t0 in
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.span_end ~vns:(t0 + exec_ns) "exec"
      [
        ("status", Nyx_obs.Trace.Str (status_str status));
        ("exec_ns", Nyx_obs.Trace.Int exec_ns);
      ];
  { Report.status; exec_ns; state_code = t.ctx.Ctx.state_code }

type session = {
  s_from : int;
  s_env : Nyx_spec.Interp.env;
  s_work : Nyx_spec.Interp.env; (* each suffix run's env, reset from [s_env] *)
  s_cov : Coverage.checkpoint;
  s_state_code : int;
  s_tokens : (int * int) list * int * int option * int;
}

let start_session t program =
  match Nyx_spec.Interp.snapshot_op_index program with
  | None -> Error { Report.status = Report.Hang; exec_ns = 0; state_code = 0 }
  | Some snap_idx -> (
    let t0 = Nyx_sim.Clock.now_ns t.clock in
    if Nyx_obs.Trace.on () then
      Nyx_obs.Trace.span_begin ~vns:t0 "prefix"
        [ ("snapshot_at", Nyx_obs.Trace.Int snap_idx) ];
    prof t Nyx_obs.Profile.Reset (fun () ->
        Nyx_snapshot.Engine.restore_root t.engine;
        reset_exec_state t);
    let result = ref None in
    let status =
      match wedge_status t with
      | Some status -> status
      | None ->
        prof t Nyx_obs.Profile.Prefix_replay (fun () ->
            status_of_run (fun () ->
                match
                  Nyx_spec.Interp.run_until_snapshot program t.handlers
                with
                | Some (from, env) -> result := Some (from, env)
                | None -> ()))
    in
    let trace_close ok =
      if Nyx_obs.Trace.on () then
        Nyx_obs.Trace.span_end
          ~vns:(Nyx_sim.Clock.now_ns t.clock)
          "prefix"
          [
            ("ok", Nyx_obs.Trace.Bool ok);
            ("status", Nyx_obs.Trace.Str (status_str status));
          ]
    in
    match (status, !result) with
    | Report.Pass, Some (from, env) ->
      trace_close true;
      Ok
        {
          s_from = from;
          s_env = env;
          s_work = Nyx_spec.Interp.copy_env env;
          s_cov = Coverage.save t.ctx.Ctx.cov;
          s_state_code = t.ctx.Ctx.state_code;
          s_tokens = Op_handlers.save_tokens t.ops;
        }
    | status, _ ->
      if Nyx_snapshot.Engine.has_incremental t.engine then
        prof t Nyx_obs.Profile.Reset (fun () ->
            Nyx_snapshot.Engine.restore_root t.engine);
      trace_close false;
      Error
        {
          Report.status;
          exec_ns = Nyx_sim.Clock.now_ns t.clock - t0;
          state_code = t.ctx.Ctx.state_code;
        })

let suffix_start s = s.s_from

let run_suffix t session program =
  let t0 = Nyx_sim.Clock.now_ns t.clock in
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.span_begin ~vns:t0 "exec" [ ("mode", Nyx_obs.Trace.Str "suffix") ];
  prof t Nyx_obs.Profile.Reset (fun () ->
      (try Nyx_snapshot.Engine.restore t.engine
       with Nyx_resilience.Fault.Injected _ ->
         (* The frozen prefix is preserved verbatim in every mutant, so
            replaying [program]'s prefix rebuilds the exact session. *)
         recover_incremental t program);
      Coverage.restore t.ctx.Ctx.cov session.s_cov;
      t.ctx.Ctx.state_code <- session.s_state_code;
      Op_handlers.load_tokens t.ops session.s_tokens);
  let env = session.s_work in
  Nyx_spec.Interp.blit_env ~src:session.s_env ~dst:env;
  let status =
    match wedge_status t with
    | Some status -> status
    | None ->
      prof t Nyx_obs.Profile.Suffix_exec (fun () ->
          status_of_run (fun () ->
              ignore (Nyx_spec.Interp.run ~from:session.s_from ~env program t.handlers)))
  in
  let exec_ns = Nyx_sim.Clock.now_ns t.clock - t0 in
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.span_end ~vns:(t0 + exec_ns) "exec"
      [
        ("status", Nyx_obs.Trace.Str (status_str status));
        ("exec_ns", Nyx_obs.Trace.Int exec_ns);
      ];
  { Report.status; exec_ns; state_code = t.ctx.Ctx.state_code }

let end_session t _session =
  prof t Nyx_obs.Profile.Reset (fun () -> Nyx_snapshot.Engine.restore_root t.engine)

(* ------------------------------------------------------------------ *)
(* Protocol-state probing (dynamic snapshot placement).                *)

let state_hash t = Target.state_hash t.ctx (Nyx_snapshot.Engine.aux t.engine)

let last_snapshot_pages t = Nyx_snapshot.Engine.last_create_pages t.engine

(* Single-step the (snapshot-stripped) program from the root, hashing the
   protocol state after every packet; a hash change at packet i+1 marks a
   state-machine boundary. Only interior indices are reported — placing
   the snapshot at 0 or past the last packet is never useful. A crash in
   the probe simply truncates the boundary list (the crashing mutant will
   be triaged by a real execution; the probe's job is placement only). The
   full probe cost — replay, per-step hashing — lands on the virtual
   clock, so placement decisions stay deterministic.

   [feasible] is the static prior from [Nyx_analysis.Dataflow]: the
   sorted interior indices at which a boundary can possibly appear. With
   it the probe hashes only at feasible indices — an inert op cannot
   move the hash, so the skipped comparisons are exactly the ones that
   always came back equal (and the hash after the last op, whose
   boundary would never be interior). Under NYX_SANITIZE the skipped
   indices are re-hashed anyway as a conformance check — off the virtual
   clock, so the sanitized timeline stays bit-identical — and a hash
   move at an infeasible index raises [Interp.Violation] with code
   [state-boundary-escape]: the static classification was unsound. *)
let state_boundaries ?feasible t program =
  let p = Nyx_spec.Program.strip_snapshots program in
  let n = Array.length p.Nyx_spec.Program.ops in
  let feasible_at =
    match feasible with
    | None -> fun _ -> true
    | Some fs ->
      let a = Array.make (n + 1) false in
      List.iter (fun b -> if b >= 0 && b <= n then a.(b) <- true) fs;
      fun b -> a.(b)
  in
  let sanitize = Nyx_spec.Interp.sanitize_default in
  t.probe_hashed <- 0;
  t.probe_skipped <- 0;
  prof t Nyx_obs.Profile.Reset (fun () ->
      Nyx_snapshot.Engine.restore_root t.engine;
      reset_exec_state t);
  let env = Nyx_spec.Interp.initial_env p in
  let boundaries = ref [] in
  let hash () =
    t.probe_hashed <- t.probe_hashed + 1;
    state_hash t
  in
  let prev = ref (hash ()) in
  ignore
    (status_of_run (fun () ->
         for i = 0 to n - 1 do
           ignore (Nyx_spec.Interp.run ~from:i ~until:(i + 1) ~env p t.handlers);
           if feasible_at (i + 1) then begin
             let cur = hash () in
             if cur <> !prev && i + 1 <= n - 1 then boundaries := (i + 1) :: !boundaries;
             prev := cur
           end
           else begin
             t.probe_skipped <- t.probe_skipped + 1;
             (* Boundary n (after the last op) is excluded from the prior
                by construction, not by inertness — it is never a
                placement candidate, so the hash there may legitimately
                move. Shadow-check interior boundaries only, mirroring
                the recording condition above. *)
             if sanitize && i + 1 <= n - 1 then begin
               (* Shadow hash for conformance only: roll the clock back so
                  the sanitized run keeps the prior-on timeline. *)
               let t0 = Nyx_sim.Clock.now_ns t.clock in
               let cur = state_hash t in
               Nyx_sim.Clock.set_ns t.clock t0;
               if cur <> !prev then
                 raise
                   (Nyx_spec.Interp.Violation
                      {
                        op = i;
                        code = "state-boundary-escape";
                        detail =
                          Printf.sprintf
                            "protocol-state hash moved at statically infeasible \
                             boundary %d (op classified inert)"
                            (i + 1);
                      })
             end
           end
         done));
  prof t Nyx_obs.Profile.Reset (fun () ->
      Nyx_snapshot.Engine.restore_root t.engine;
      reset_exec_state t);
  List.rev !boundaries

let last_probe_hashed t = t.probe_hashed
let last_probe_skipped t = t.probe_skipped
