open Nyx_targets
open Nyx_netemu

type mode = Aflnet | Aflnwe | Desock | Fork_replay

exception Incompatible of string

type t = {
  mode : mode;
  clock : Nyx_sim.Clock.t;
  ctx : Ctx.t;
  root : Nyx_snapshot.Root.t;
  aux : Nyx_snapshot.Aux_state.t;
  vm : Nyx_vm.Vm.t;
  ops : Nyx_core.Op_handlers.t;
  handlers : Nyx_spec.Interp.handlers;  (* built once from [ops] *)
  target : Target.t;
}

(* How long AFL++ waits before killing a desock'd server that never
   exits on its own. *)
let desock_kill_timeout_ns = 30_000_000

let backend_of_mode = function
  | Aflnet | Aflnwe -> Net.Real
  | Desock | Fork_replay -> Net.Emulated

let boundaries_of_mode = function
  | Aflnet | Fork_replay -> true
  | Aflnwe | Desock -> false (* unstructured streams lose packet framing *)

let create ?(asan = false) ?(layout_cookie = 0) ~mode target =
  if mode = Desock && not target.Target.info.Target.desock_compat then
    raise
      (Incompatible
         (Printf.sprintf "%s cannot run under libpreeny's desock emulation"
            target.Target.info.Target.name));
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create clock in
  let net = Net.create ~backend:(backend_of_mode mode) ~boundaries:(boundaries_of_mode mode) clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  Net.register_aux net aux;
  let ctx = Ctx.of_vm ~asan ~layout_cookie ~net vm in
  let runtime = Target.boot target ctx in
  Target.pump runtime;
  let root = Nyx_snapshot.Root.create vm aux in
  let after_packet () =
    match mode with
    | Aflnet | Aflnwe ->
      (* AFLNet waits for the server's response with a fixed timeout. *)
      Nyx_sim.Clock.advance clock Nyx_sim.Cost.response_wait
    | Desock | Fork_replay -> ()
  in
  let ops = Nyx_core.Op_handlers.create ~net ~runtime ~target ~after_packet () in
  let handlers = Nyx_core.Op_handlers.handlers ops in
  { mode; clock; ctx; root; aux; vm; ops; handlers; target }

let clock t = t.clock
let coverage t = t.ctx.Ctx.cov
let state_code t = t.ctx.Ctx.state_code

let restart_costs t =
  let info = t.target.Target.info in
  match t.mode with
  | Aflnet | Aflnwe ->
    (* Re-exec the server, wait for it to come up, and run the cleanup
       script for the previous test case. *)
    Nyx_sim.Cost.fork + info.Target.startup_ns + Nyx_sim.Cost.server_init_wait
    + Nyx_sim.Cost.cleanup_script
  | Desock ->
    (* Deferred forkserver skips most init; the kill timeout dominates. *)
    Nyx_sim.Cost.fork + desock_kill_timeout_ns
  | Fork_replay -> Nyx_sim.Cost.fork + info.Target.startup_ns

let run t program =
  let t0 = Nyx_sim.Clock.now_ns t.clock in
  (* Restart the process: memory and kernel state reset (fork semantics),
     but restart-based cleanup misses the disk spool. *)
  let keep_disk = t.mode = Aflnet || t.mode = Aflnwe in
  ignore (Nyx_snapshot.Root.restore ~disk:(not keep_disk) t.vm t.aux t.root);
  Nyx_sim.Clock.advance t.clock (restart_costs t);
  Coverage.reset t.ctx.Ctx.cov;
  t.ctx.Ctx.state_code <- 0;
  Nyx_core.Op_handlers.reset t.ops;
  let status =
    Nyx_core.Executor.status_of_run (fun () ->
        ignore (Nyx_spec.Interp.run program t.handlers))
  in
  {
    Nyx_core.Report.status;
    exec_ns = Nyx_sim.Clock.now_ns t.clock - t0;
    state_code = t.ctx.Ctx.state_code;
  }
