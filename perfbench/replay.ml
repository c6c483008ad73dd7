(* Layer replay for the traced run.

   Rebuilds the executor stack from public constructors (VM, emulated
   network, aux-state registry, target, snapshot engine, opcode handlers)
   and replays a finished campaign's final corpus through it: the corpus
   is scheduled, each scheduled entry is placed by a fresh policy of the
   campaign's kind, mutated by a fresh engine of the campaign's kind and
   executed the way [Executor.run_full] / [Executor.run_suffix] do. Every
   call into a layer is a span, and the spans of one execution share an
   exec id, so each layer's self time can be read off the trace.

   Aux-state and checkpoint calls are also timed as separate "side" calls
   on the same state: the snapshot engine captures and restores aux state
   internally, so the replay cannot see those calls from outside. *)

open Nyx_core
open Nyx_targets
module S = Spans
module Engine = Nyx_snapshot.Engine
module Aux = Nyx_snapshot.Aux_state
module Interp = Nyx_spec.Interp
module Program = Nyx_spec.Program

type counters = {
  mutable execs : int;
  mutable ops : int;
  mutable syscalls : int;
  mutable mut_calls : int;
  mutable mut_words : float;
  mutable aux_bytes : int list;
  mutable ckpt_bytes : int;
  mutable root_restores : int;
  mutable inc_restores : int;
  mutable creates : int;
  mutable wall_ns : int;  (** replay time, side calls excluded *)
}

let counters () =
  {
    execs = 0;
    ops = 0;
    syscalls = 0;
    mut_calls = 0;
    mut_words = 0.0;
    aux_bytes = [];
    ckpt_bytes = 0;
    root_restores = 0;
    inc_restores = 0;
    creates = 0;
    wall_ns = 0;
  }

type stack = {
  clock : Nyx_sim.Clock.t;
  net : Nyx_netemu.Net.t;
  aux : Aux.t;
  ctx : Ctx.t;
  engine : Engine.t;
  ops : Op_handlers.t;
  handlers : Interp.handlers;
}

(* What [Executor.create] does, from the same public constructors. The
   peer driver's handler is wrapped so its calls are spans. *)
let build (c : Workload.camp) =
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create ~config:Nyx_vm.Vm.fuzz_config clock in
  let net = Nyx_netemu.Net.create ~backend:Nyx_netemu.Net.Emulated ~boundaries:true clock in
  let aux = Aux.create () in
  Nyx_netemu.Net.register_aux net aux;
  let layout_cookie = Nyx_sim.Rng.int (Nyx_sim.Rng.create c.cfg.Campaign.seed) 1_000_000 in
  let ctx = Ctx.of_vm ~asan:c.cfg.Campaign.asan ~layout_cookie ~net vm in
  let target = c.entry.Registry.target in
  let runtime = Target.boot target ctx in
  Target.pump runtime;
  let peer =
    Option.map
      (fun script ->
        let d = Nyx_peer.Peer_driver.create ~clock ~net ~runtime ~target script in
        Nyx_peer.Peer_driver.register_aux d aux;
        d)
      c.script
  in
  (match Workload.peer_faults c.w, peer with
  | Some spec, Some d ->
    Nyx_peer.Peer_driver.arm d
      (Nyx_resilience.Plan.create spec (Nyx_sim.Rng.create c.cfg.Campaign.seed))
  | _ -> ());
  let engine = Engine.create vm aux in
  let custom =
    Option.map
      (fun d ->
        let h = Nyx_peer.Peer_driver.handler d in
        fun ~send node inputs data ->
          S.with_span "peer.handler" (fun () -> h ~send node inputs data))
      peer
  in
  let ops =
    Op_handlers.create ~net ~runtime ~target
      ~on_snapshot:(fun () ->
        S.with_span "snapshot.create" (fun () -> Engine.take_incremental engine))
      ?custom ()
  in
  { clock; net; aux; ctx; engine; ops; handlers = Op_handlers.handlers ops }

let reset_exec st =
  Coverage.reset st.ctx.Ctx.cov;
  st.ctx.Ctx.state_code <- 0;
  Op_handlers.reset st.ops

let restore_root st =
  S.with_span "snapshot.restore_root" (fun () -> Engine.restore_root st.engine)

let interp st k f =
  let sys0 = Nyx_netemu.Net.syscall_count st.net in
  let status = S.with_span "interp.run" (fun () -> Executor.status_of_run f) in
  k.syscalls <- k.syscalls + Nyx_netemu.Net.syscall_count st.net - sys0;
  status

(* [Executor.run_full]. *)
let exec_full st k program =
  S.with_span "exec" (fun () ->
      restore_root st;
      reset_exec st;
      let status = interp st k (fun () -> ignore (Interp.run program st.handlers)) in
      if Engine.has_incremental st.engine then restore_root st;
      k.ops <- k.ops + Array.length program.Program.ops;
      status)

type session = {
  from : int;
  env : Interp.env;
  cov : Coverage.checkpoint;
  state_code : int;
  tokens : (int * int) list * int * int option * int;
}

(* [Executor.start_session]: the prefix up to the snapshot opcode. *)
let start_session st k program =
  let result = ref None in
  let status =
    restore_root st;
    reset_exec st;
    interp st k (fun () -> result := Interp.run_until_snapshot program st.handlers)
  in
  match (status, !result) with
  | Report.Pass, Some (from, env) ->
    Some
      {
        from;
        env;
        cov = Coverage.save st.ctx.Ctx.cov;
        state_code = st.ctx.Ctx.state_code;
        tokens = Op_handlers.save_tokens st.ops;
      }
  | _ ->
    if Engine.has_incremental st.engine then restore_root st;
    None

(* [Executor.run_suffix]. *)
let exec_suffix st k s program =
  S.with_span "exec" (fun () ->
      S.with_span "snapshot.restore" (fun () ->
          try Engine.restore st.engine
          with Nyx_resilience.Fault.Injected _ ->
            Engine.restore_root st.engine;
            reset_exec st;
            ignore (Interp.run_until_snapshot program st.handlers));
      S.with_span "coverage.restore" (fun () -> Coverage.restore st.ctx.Ctx.cov s.cov);
      st.ctx.Ctx.state_code <- s.state_code;
      Op_handlers.load_tokens st.ops s.tokens;
      let env = Interp.copy_env s.env in
      let status =
        interp st k (fun () -> ignore (Interp.run ~from:s.from ~env program st.handlers))
      in
      k.ops <- k.ops + Array.length program.Program.ops - s.from;
      status)

(* Aux-state capture and restore timed as separate calls on the state the
   session just snapshotted. Restoring the capture just taken is the
   identity; the virtual clock is put back so the replay's own cost
   figures are unaffected. *)
let time_aux st k =
  let t0 = Nyx_sim.Clock.now_ns st.clock in
  let cap = S.with_span ~side:true "aux.capture" (fun () -> Aux.capture st.aux st.clock) in
  S.with_span ~side:true "aux.restore" (fun () -> Aux.restore st.aux st.clock cap);
  k.aux_bytes <- Aux.size_bytes cap :: k.aux_bytes;
  Nyx_sim.Clock.set_ns st.clock t0

(* [Executor.state_boundaries] with the static boundary prior, as the
   dynamic policy's one-time probe per corpus entry runs it. *)
let probe st k ~udp ~prior program =
  let p = Program.strip_snapshots program in
  let n = Array.length p.Program.ops in
  let feasible = Array.make (n + 1) (not prior) in
  if prior then
    List.iter
      (fun b -> if b >= 0 && b <= n then feasible.(b) <- true)
      (Nyx_analysis.Dataflow.feasible_boundaries ~udp program);
  restore_root st;
  reset_exec st;
  let env = Interp.initial_env p in
  let hashed = ref 0 and skipped = ref 0 and bounds = ref [] in
  let hash () =
    incr hashed;
    S.with_span "policy.state_hash" (fun () -> Target.state_hash st.ctx st.aux)
  in
  let prev = ref (hash ()) in
  ignore
    (interp st k (fun () ->
         for i = 0 to n - 1 do
           ignore (Interp.run ~from:i ~until:(i + 1) ~env p st.handlers);
           if feasible.(i + 1) then begin
             let cur = hash () in
             if cur <> !prev && i + 1 <= n - 1 then bounds := (i + 1) :: !bounds;
             prev := cur
           end
           else incr skipped
         done));
  restore_root st;
  reset_exec st;
  (List.rev !bounds, !hashed, !skipped)

(* Replay [ck]'s corpus until [max_execs] executions or [max_ns] of wall
   time. [ckpt] is a checkpoint file the campaign wrote and [cadence] its
   executions per checkpoint write: the replay saves a checkpoint at that
   cadence, so checkpoint writes take their real share of the timeline. *)
let run ?ckpt ~max_execs ~max_ns (c : Workload.camp) (ck : Checkpoint.t) k =
  let spec = Campaign.net_spec () in
  let st = build c in
  let corpus = Corpus.create () in
  List.iter
    (fun (ce : Checkpoint.corpus_entry) ->
      match Program.parse spec.Nyx_spec.Net_spec.spec ce.Checkpoint.ce_program with
      | Ok program ->
        ignore
          (Corpus.add corpus ~program ~exec_ns:ce.Checkpoint.ce_exec_ns
             ~discovered_ns:ce.Checkpoint.ce_discovered_ns
             ~state_code:ce.Checkpoint.ce_state_code)
      | Error m -> failwith ("replay: corpus entry does not parse: " ^ m))
    ck.Checkpoint.c_corpus;
  let cum = Coverage.Cumulative.create () in
  Coverage.Cumulative.load_state cum ck.Checkpoint.c_virgin;
  let rng = Nyx_sim.Rng.create c.cfg.Campaign.seed in
  let policy = Policy.create c.w.Workload.policy (Nyx_sim.Rng.split rng) in
  let mut_rng = Nyx_sim.Rng.split rng in
  let engine = Engines.create c.w.Workload.engine spec.Nyx_spec.Net_spec.spec in
  let dyn = Policy.is_dynamic policy in
  let udp = c.entry.Registry.target.Target.info.Target.proto = Nyx_netemu.Net.Udp in
  let prior = c.script = None in
  let stats0 = Engine.stats st.engine in
  let ckpt_raw =
    Option.map
      (fun (path, _) ->
        match Nyx_resilience.Atomic_io.read_file path with
        | Ok raw -> raw
        | Error m -> failwith ("replay: " ^ m))
      ckpt
  in
  let ckpt_tmp = Option.map (fun (path, _) -> path ^ ".replay") ckpt in
  let side0 = ref 0 in
  let side f =
    let t0 = S.now_ns () in
    let v = f () in
    side0 := !side0 + S.now_ns () - t0;
    v
  in
  let t_start = S.now_ns () in
  let exec_id = ref 0 in
  let mutate ~frozen ~max_ops program =
    S.with_span "mutation.mutate" (fun () ->
        let w0 = Gc.minor_words () in
        let m =
          Nyx_spec.Mutation_engine.mutate engine mut_rng
            {
              Nyx_spec.Mutation_engine.mx_frozen = frozen;
              mx_max_ops = max_ops;
              mx_dict = ck.Checkpoint.c_dict;
              mx_corpus = Corpus.programs corpus;
            }
            program
        in
        k.mut_words <- k.mut_words +. (Gc.minor_words () -. w0);
        k.mut_calls <- k.mut_calls + 1;
        m)
  in
  let merge () =
    S.with_span "coverage.merge" (fun () -> Coverage.Cumulative.merge cum st.ctx.Ctx.cov)
  in
  let merge_and_credit () =
    let novel = merge () in
    Nyx_spec.Mutation_engine.credit engine ~novel;
    novel
  in
  let maybe_checkpoint () =
    match (ckpt, ckpt_tmp) with
    | Some (_, cadence), Some tmp when cadence > 0 && k.execs mod cadence = 0 ->
      S.with_span "checkpoint.save" (fun () ->
          match Checkpoint.save tmp ck with
          | Ok () -> ()
          | Error m -> failwith ("replay: checkpoint save: " ^ m))
    | _ -> ()
  in
  let one_exec f =
    S.with_span ~exec:!exec_id "iteration" (fun () -> f ());
    incr exec_id;
    k.execs <- k.execs + 1;
    maybe_checkpoint ()
  in
  let execs0 = k.execs in
  let out_of_time () =
    k.execs - execs0 >= max_execs || S.now_ns () - t_start - !side0 >= max_ns
  in
  while not (out_of_time ()) do
    let entry =
      S.with_span ~exec:!exec_id "corpus.schedule" (fun () -> Corpus.schedule corpus rng)
    in
    let id = entry.Corpus.id and packets = entry.Corpus.packets in
    if dyn && packets >= Policy.min_packets_for_snapshot then begin
      match Policy.prepare_dynamic policy ~input_id:id ~packets ~full_ns:entry.Corpus.exec_ns with
      | `Ready -> ()
      | `Probe ->
        let boundaries, hashed, skipped =
          S.with_span ~exec:!exec_id "policy.probe" (fun () ->
              probe st k ~udp ~prior entry.Corpus.program)
        in
        Policy.set_boundaries policy ~input_id:id ~hashed ~skipped ~packets ~boundaries
    end;
    let news = ref false and ns_sum = ref 0 and runs = ref 0 in
    let timed_exec f =
      let v0 = Nyx_sim.Clock.now_ns st.clock in
      f ();
      ns_sum := !ns_sum + Nyx_sim.Clock.now_ns st.clock - v0;
      incr runs
    in
    (match Policy.decide policy ~input_id:id ~packets with
    | `Root ->
      let i = ref 0 in
      while !i < Policy.reuse_count && not (out_of_time ()) do
        incr i;
        one_exec (fun () ->
            let m = mutate ~frozen:0 ~max_ops:ck.Checkpoint.c_max_ops entry.Corpus.program in
            timed_exec (fun () -> ignore (exec_full st k m));
            if merge_and_credit () then news := true)
      done;
      if dyn && !runs > 0 then Policy.observe_full policy ~input_id:id ~ns:(!ns_sum / !runs)
    | `At idx -> (
      let with_snap = Program.with_snapshot_at entry.Corpus.program idx in
      let v0 = Nyx_sim.Clock.now_ns st.clock in
      match S.with_span ~exec:!exec_id "session" (fun () -> start_session st k with_snap) with
      | None -> one_exec (fun () -> ignore (merge ()))
      | Some s ->
        let setup_ns = Nyx_sim.Clock.now_ns st.clock - v0 in
        side (fun () -> time_aux st k);
        let i = ref 0 in
        while !i < Policy.reuse_count && not (out_of_time ()) do
          incr i;
          one_exec (fun () ->
              let m = mutate ~frozen:s.from ~max_ops:(ck.Checkpoint.c_max_ops + 1) with_snap in
              timed_exec (fun () -> ignore (exec_suffix st k s m));
              if merge_and_credit () then news := true)
        done;
        restore_root st;
        if dyn && !runs > 0 then
          Policy.observe_session policy ~input_id:id ~idx ~setup_ns
            ~round_ns:(!ns_sum / !runs)
            ~pages:(Engine.last_create_pages st.engine)));
    if !news then Policy.notify_news policy ~input_id:id
    else Policy.notify_no_news policy ~input_id:id
  done;
  k.wall_ns <- k.wall_ns + S.now_ns () - t_start - !side0;
  (* Checkpoint encode/decode as separate calls on the file the run wrote. *)
  (match ckpt_raw with
  | None -> ()
  | Some raw ->
    k.ckpt_bytes <- Bytes.length raw;
    for _ = 1 to 20 do
      let d = S.with_span ~side:true "checkpoint.decode" (fun () -> Checkpoint.decode raw) in
      ignore (S.with_span ~side:true "checkpoint.encode" (fun () -> Checkpoint.encode d))
    done);
  Option.iter (fun tmp -> if Sys.file_exists tmp then Sys.remove tmp) ckpt_tmp;
  let stats1 = Engine.stats st.engine in
  k.root_restores <-
    k.root_restores + stats1.Engine.root_restores - stats0.Engine.root_restores;
  k.inc_restores <-
    k.inc_restores + stats1.Engine.incremental_restores - stats0.Engine.incremental_restores;
  k.creates <- k.creates + stats1.Engine.incremental_creates - stats0.Engine.incremental_creates
