open Nyx_netemu

type role = Server | Client

type info = {
  name : string;
  role : role;
  port : int;
  proto : Net.proto;
  dissector : Nyx_pcap.Dissector.t;
  startup_ns : int;
  work_ns : int;
  desock_compat : bool;
  forking : bool;
  max_recv : int;
  dict : string list;
}

type hooks = {
  global_state_size : int;
  conn_state_size : int;
  on_init : Ctx.t -> g:int -> unit;
  on_connect : Ctx.t -> g:int -> conn:int -> reply:(bytes -> unit) -> unit;
  on_packet : Ctx.t -> g:int -> conn:int -> reply:(bytes -> unit) -> bytes -> unit;
  on_disconnect : Ctx.t -> g:int -> conn:int -> unit;
}

type t = { info : info; hooks : hooks }

let default_hooks =
  {
    global_state_size = 16;
    conn_state_size = 16;
    on_init = (fun _ ~g:_ -> ());
    on_connect = (fun _ ~g:_ ~conn:_ ~reply:_ -> ());
    on_packet = (fun _ ~g:_ ~conn:_ ~reply:_ _ -> ());
    on_disconnect = (fun _ ~g:_ ~conn:_ -> ());
  }

type runtime = {
  t : t;
  rt_ctx : Ctx.t;
  g : int;
  conns : Conn_table.t;
  listen_fd : Net.fd;
}

let boot t ctx =
  Nyx_sim.Clock.advance ctx.Ctx.clock t.info.startup_ns;
  let g = Nyx_vm.Guest_heap.alloc ctx.Ctx.heap (max 4 t.hooks.global_state_size) in
  t.hooks.on_init ctx ~g;
  let conns = Conn_table.create ctx ~conn_state_size:(max 4 t.hooks.conn_state_size) in
  let fd = Net.socket ctx.Ctx.net t.info.proto in
  (match t.info.role with
  | Server ->
    Net.setsockopt ctx.Ctx.net fd "SO_REUSEADDR" 1;
    Net.bind ctx.Ctx.net fd t.info.port;
    if t.info.proto <> Net.Udp then Net.listen ctx.Ctx.net fd
  | Client ->
    (* The client dials out during startup; the fuzzer will play the
       remote service on the resulting flow. *)
    ignore (Net.connect_out ctx.Ctx.net fd ~port:t.info.port);
    (match Conn_table.insert conns ~key:fd with
    | Some conn ->
      let reply data = ignore (Net.send ctx.Ctx.net fd data) in
      t.hooks.on_connect ctx ~g ~conn ~reply
    | None -> ()));
  { t; rt_ctx = ctx; g; conns; listen_fd = fd }

(* Event-loop iteration budget before the pump declares the guest wedged.
   Overridable via NYX_HANG_BUDGET (read once at load, like NYX_DOMAINS)
   for targets whose event loops legitimately need more rounds. *)
let default_hang_budget = 4096

let env_hang_budget =
  match Sys.getenv_opt "NYX_HANG_BUDGET" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

(* In-process override for tests (beats the environment). Domain-safe:
   set before any campaign runs, read-only from worker domains. *)
let hang_budget_override : int option ref = ref None

let set_hang_budget_override n = hang_budget_override := n

let hang_budget () =
  match !hang_budget_override with
  | Some n -> n
  | None -> ( match env_hang_budget with Some n -> n | None -> default_hang_budget)

let pump rt =
  let ctx = rt.rt_ctx in
  let net = ctx.Ctx.net in
  let hooks = rt.t.hooks in
  let info = rt.t.info in
  let budget = hang_budget () in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue do
    incr iterations;
    if !iterations > budget then
      Ctx.crash ctx ~kind:"hang"
        (Printf.sprintf "event loop did not quiesce within %d iterations (hang budget)"
           budget);
    match Net.poll net with
    | None -> continue := false
    | Some (`Accept fd) -> (
      let conn_fd = Net.accept net fd in
      match Conn_table.insert rt.conns ~key:conn_fd with
      | None ->
        (* Connection table full: refuse, as real servers do. *)
        Ctx.hit ctx (Ctx.edge (info.name ^ "/refuse"));
        Net.close net conn_fd
      | Some conn ->
        if info.forking then ignore (Net.fork net);
        let reply data = ignore (Net.send net conn_fd data) in
        hooks.on_connect ctx ~g:rt.g ~conn ~reply)
    | Some (`Read fd) when info.proto = Net.Udp && fd = rt.listen_fd ->
      let data, flow = Net.recvfrom net fd ~max:info.max_recv in
      if Bytes.length data > 0 then begin
        let conn =
          match Conn_table.find rt.conns ~key:flow with
          | Some addr -> Some addr
          | None -> (
            match Conn_table.insert rt.conns ~key:flow with
            | None ->
              Ctx.hit ctx (Ctx.edge (info.name ^ "/refuse"));
              None
            | Some addr ->
              let reply data = ignore (Net.sendto net fd flow data) in
              hooks.on_connect ctx ~g:rt.g ~conn:addr ~reply;
              Some addr)
        in
        match conn with
        | None -> ()
        | Some conn ->
          Ctx.work ctx info.work_ns;
          let reply data = ignore (Net.sendto net fd flow data) in
          hooks.on_packet ctx ~g:rt.g ~conn ~reply data
      end
    | Some (`Read fd) ->
      let data = Net.recv net fd ~max:info.max_recv in
      if Bytes.length data = 0 then begin
        (match Conn_table.find rt.conns ~key:fd with
        | Some conn ->
          hooks.on_disconnect ctx ~g:rt.g ~conn;
          Conn_table.remove rt.conns ~key:fd
        | None -> ());
        Net.close net fd
      end
      else begin
        match Conn_table.find rt.conns ~key:fd with
        | None -> () (* data on an untracked fd: drop, as servers do *)
        | Some conn ->
          Ctx.work ctx info.work_ns;
          let reply data = ignore (Net.send net fd data) in
          hooks.on_packet ctx ~g:rt.g ~conn ~reply data
      end
  done

let ctx rt = rt.rt_ctx
let target rt = rt.t

(* StateAFL-style protocol-state identification (used by the dynamic
   snapshot-placement policy): fuzzy-hash the auxiliary snapshot state —
   the emulated network stack is registered there, so socket tables and
   flow structure feed in — and fold in the target's explicit state-code
   annotation. Charges Cost.state_hash plus the aux capture's per-byte
   cost, all on the virtual clock, so probing is deterministic. *)
let state_hash ctx aux =
  Nyx_sim.Clock.advance ctx.Ctx.clock Nyx_sim.Cost.state_hash;
  let cap = Nyx_snapshot.Aux_state.hash_capture aux ctx.Ctx.clock in
  (Nyx_snapshot.Aux_state.fuzzy_hash cap lxor Ctx.state_signature ctx) land max_int

let sample_capture_of_packets ?(stream = 0) packets =
  List.fold_left
    (fun (cap, ts) payload ->
      ( Nyx_pcap.Capture.add cap
          { Nyx_pcap.Capture.stream; dir = Nyx_pcap.Capture.To_server; ts_us = ts; payload },
        ts + 1000 ))
    (Nyx_pcap.Capture.empty, 0) packets
  |> fst
