type fd = int
type flow = int
type proto = Tcp | Udp | Unix_sock
type backend = Emulated | Real

exception Would_block of fd
exception Bad_fd of fd

type sock = {
  sid : int;
  proto : proto;
  mutable port : int;
  mutable listening : bool;
  mutable backlog : int list; (* pending connection sids, oldest first *)
  mutable inbox : (int * Bytes.t) list; (* (flow, packet), oldest first *)
  mutable partial : (int * Bytes.t) option; (* unconsumed tail of a packet *)
  mutable out_rev : (int * Bytes.t) list;
  mutable peer_open : bool;
  mutable eof_pending : bool;
  mutable refcount : int;
  mutable conn_flow : int; (* TCP/Unix connection's flow id; -1 otherwise *)
  mutable reply_flow : int; (* last recvfrom peer, for connectionless send *)
  mutable write_shut : bool;
  mutable options : (string * int) list;
  mutable outbound : bool;
}

(* Everything the kernel would snapshot: closure-free, Marshal-safe. *)
type state = {
  socks : (int, sock) Hashtbl.t;
  fds : (int, int * int) Hashtbl.t; (* fd -> (sid, per-process refcount) *)
  flows : (int, int) Hashtbl.t; (* flow -> sid *)
  listeners : (int, int) Hashtbl.t; (* port -> sid *)
  mutable next_fd : int;
  mutable next_sid : int;
  mutable next_flow : int;
  mutable processes : int;
  mutable syscalls : int;
}

type t = {
  mutable st : state;
  clock : Nyx_sim.Clock.t;
  backend : backend;
  boundaries : bool;
}

let fresh_state () =
  {
    socks = Hashtbl.create 16;
    fds = Hashtbl.create 16;
    flows = Hashtbl.create 16;
    listeners = Hashtbl.create 4;
    next_fd = 3; (* 0-2 are stdio *)
    next_sid = 1;
    next_flow = 1;
    processes = 1;
    syscalls = 0;
  }

let create ?(backend = Emulated) ?(boundaries = true) clock =
  { st = fresh_state (); clock; backend; boundaries }

let backend t = t.backend

(* Restore without decoding. Beside its Marshal image, a capture keeps a
   template: a private deep copy of the state. Each restore installs a
   fresh copy of the template. A copy duplicates every mutable part (the
   hash tables, in their bucket order, the socket records and the packet
   bytes) and shares the immutable rest, so a restored state re-marshals
   to the captured image byte for byte: the image sets virtual time and
   feeds the fuzzy hash, and Marshal encodes sharing. *)

let copy_packet (fl, data) = (fl, Bytes.copy data)

let copy_sock s =
  {
    s with
    inbox = List.map copy_packet s.inbox;
    partial = Option.map copy_packet s.partial;
    out_rev = List.map copy_packet s.out_rev;
  }

let copy_state st =
  let socks = Hashtbl.copy st.socks in
  Hashtbl.filter_map_inplace (fun _ s -> Some (copy_sock s)) socks;
  {
    st with
    socks;
    fds = Hashtbl.copy st.fds;
    flows = Hashtbl.copy st.flows;
    listeners = Hashtbl.copy st.listeners;
  }

(* Option names are the one part of the state a target hands in, often
   string literals shared between sockets. A template owns private
   copies, shared among themselves as in the image, so a restored state
   shares nothing with the target — what decoding the image would give. *)
let template_of st =
  let template = copy_state st in
  let owned = ref [] in
  let own name =
    match List.assq_opt name !owned with
    | Some copy -> copy
    | None ->
      let copy = String.sub name 0 (String.length name) in
      owned := (name, copy) :: !owned;
      copy
  in
  Hashtbl.iter
    (fun _ s -> s.options <- List.map (fun (name, v) -> (own name, v)) s.options)
    template.socks;
  template

let reinstate t image template =
  t.st <- copy_state template;
  if Nyx_sim.Sanitize.armed && not (Bytes.equal (Marshal.to_bytes t.st []) image) then
    failwith "Net: restored state does not re-marshal to the captured image"

let register_aux t aux =
  Nyx_snapshot.Aux_state.register aux
    {
      Nyx_snapshot.Aux_state.name = "netemu";
      save =
        (fun () ->
          let image = Marshal.to_bytes t.st [] and template = template_of t.st in
          (image, fun () -> reinstate t image template));
    };
  (* The syscall counter is pure telemetry: it advances on every poll, so
     leaving it in the hashed image would make every op look like a new
     protocol state (the Marshal varint grows and shifts all later bytes
     across hash chunks). Zero it for the hash view only — snapshots keep
     capturing the exact state. *)
  Nyx_snapshot.Aux_state.register_hash_view aux ~name:"netemu" (fun () ->
      let saved = t.st.syscalls in
      t.st.syscalls <- 0;
      Fun.protect
        ~finally:(fun () -> t.st.syscalls <- saved)
        (fun () -> Marshal.to_bytes t.st []))

let charge t cost_real =
  t.st.syscalls <- t.st.syscalls + 1;
  let ns = match t.backend with Emulated -> Nyx_sim.Cost.emulated_syscall | Real -> cost_real in
  Nyx_sim.Clock.advance t.clock ns

let charge_syscall t = charge t Nyx_sim.Cost.real_syscall

let sock_of_fd t fd =
  match Hashtbl.find_opt t.st.fds fd with
  | None -> raise (Bad_fd fd)
  | Some (sid, _) -> Hashtbl.find t.st.socks sid

let new_sock t proto =
  let st = t.st in
  let s =
    {
      sid = st.next_sid;
      proto;
      port = 0;
      listening = false;
      backlog = [];
      inbox = [];
      partial = None;
      out_rev = [];
      peer_open = true;
      eof_pending = false;
      refcount = 0;
      conn_flow = -1;
      reply_flow = -1;
      write_shut = false;
      options = [];
      outbound = false;
    }
  in
  st.next_sid <- st.next_sid + 1;
  Hashtbl.replace st.socks s.sid s;
  s

let attach_fd t sid =
  let st = t.st in
  let fd = st.next_fd in
  st.next_fd <- st.next_fd + 1;
  Hashtbl.replace st.fds fd (sid, 1);
  (Hashtbl.find st.socks sid).refcount <- (Hashtbl.find st.socks sid).refcount + 1;
  fd

(* Target-side API *)

let socket t proto =
  charge_syscall t;
  let s = new_sock t proto in
  attach_fd t s.sid

let bind t fd port =
  charge_syscall t;
  let s = sock_of_fd t fd in
  if Hashtbl.mem t.st.listeners port then
    invalid_arg (Printf.sprintf "Net.bind: port %d already bound" port);
  s.port <- port;
  Hashtbl.replace t.st.listeners port s.sid;
  (* A bound UDP socket is immediately able to receive. *)
  if s.proto = Udp then s.listening <- true

let listen t fd =
  charge_syscall t;
  let s = sock_of_fd t fd in
  if s.port = 0 then invalid_arg "Net.listen: socket not bound";
  s.listening <- true

let accept t fd =
  charge t Nyx_sim.Cost.real_connect;
  let s = sock_of_fd t fd in
  if not s.listening then invalid_arg "Net.accept: not listening";
  match s.backlog with
  | [] -> raise (Would_block fd)
  | sid :: rest ->
    s.backlog <- rest;
    attach_fd t sid

let take_packet s ~max ~datagram =
  match s.partial with
  | Some (fl, data) when not datagram ->
    if Bytes.length data <= max then begin
      s.partial <- None;
      (data, fl)
    end
    else begin
      s.partial <- Some (fl, Bytes.sub data max (Bytes.length data - max));
      (Bytes.sub data 0 max, fl)
    end
  | Some (fl, data) ->
    (* Datagram semantics: the tail beyond [max] is dropped. *)
    s.partial <- None;
    (Bytes.sub data 0 (min max (Bytes.length data)), fl)
  | None -> (
    match s.inbox with
    | [] ->
      if s.eof_pending || not s.peer_open then begin
        s.eof_pending <- false;
        (Bytes.empty, s.conn_flow)
      end
      else raise (Would_block (-1))
    | (fl, data) :: rest ->
      s.inbox <- rest;
      if datagram then (Bytes.sub data 0 (min max (Bytes.length data)), fl)
      else if Bytes.length data <= max then (data, fl)
      else begin
        s.partial <- Some (fl, Bytes.sub data max (Bytes.length data - max));
        (Bytes.sub data 0 max, fl)
      end)

(* Without boundary emulation the stream is coalesced: keep pulling queued
   packets until [max] is filled — the behaviour a real TCP stack is
   allowed to exhibit and which breaks boundary-reliant servers. *)
let take_stream s ~max =
  let buf = Buffer.create max in
  let fl = ref s.conn_flow in
  (try
     while Buffer.length buf < max do
       let data, f = take_packet s ~max:(max - Buffer.length buf) ~datagram:false in
       if Bytes.length data = 0 then raise Exit;
       fl := f;
       Buffer.add_bytes buf data
     done
   with Would_block _ | Exit -> ());
  if Buffer.length buf = 0 then begin
    if s.eof_pending || not s.peer_open then begin
      s.eof_pending <- false;
      (Bytes.empty, !fl)
    end
    else raise (Would_block (-1))
  end
  else (Bytes.of_string (Buffer.contents buf), !fl)

let recv t fd ~max =
  charge t (Nyx_sim.Cost.real_packet max);
  let s = sock_of_fd t fd in
  try
    let data, _ =
      if t.boundaries || s.proto = Udp then take_packet s ~max ~datagram:(s.proto = Udp)
      else take_stream s ~max
    in
    data
  with Would_block _ -> raise (Would_block fd)

let recvfrom t fd ~max =
  charge t (Nyx_sim.Cost.real_packet max);
  let s = sock_of_fd t fd in
  try
    let data, fl = take_packet s ~max ~datagram:true in
    s.reply_flow <- fl;
    (data, fl)
  with Would_block _ -> raise (Would_block fd)

let send t fd data =
  charge t (Nyx_sim.Cost.real_packet (Bytes.length data));
  let s = sock_of_fd t fd in
  if s.write_shut then invalid_arg "Net.send: socket shut down for writing (EPIPE)";
  let fl = if s.conn_flow >= 0 then s.conn_flow else s.reply_flow in
  s.out_rev <- (fl, Bytes.copy data) :: s.out_rev;
  Bytes.length data

let sendto t fd fl data =
  charge t (Nyx_sim.Cost.real_packet (Bytes.length data));
  let s = sock_of_fd t fd in
  s.out_rev <- (fl, Bytes.copy data) :: s.out_rev;
  Bytes.length data

let close t fd =
  charge_syscall t;
  let s = sock_of_fd t fd in
  (* The fd number disappears only when no process holds it any more;
     the socket itself dies with its last reference. *)
  (match Hashtbl.find_opt t.st.fds fd with
  | Some (sid, n) when n > 1 -> Hashtbl.replace t.st.fds fd (sid, n - 1)
  | _ -> Hashtbl.remove t.st.fds fd);
  s.refcount <- s.refcount - 1;
  if s.refcount <= 0 then begin
    if s.port <> 0 && Hashtbl.find_opt t.st.listeners s.port = Some s.sid then
      Hashtbl.remove t.st.listeners s.port;
    if s.conn_flow >= 0 then Hashtbl.remove t.st.flows s.conn_flow;
    Hashtbl.remove t.st.socks s.sid
  end

let dup t fd =
  charge_syscall t;
  let s = sock_of_fd t fd in
  attach_fd t s.sid

let connect_out t fd ~port =
  charge t Nyx_sim.Cost.real_connect;
  let s = sock_of_fd t fd in
  if s.conn_flow >= 0 then invalid_arg "Net.connect_out: already connected";
  s.port <- port;
  s.outbound <- true;
  let fl = t.st.next_flow in
  t.st.next_flow <- fl + 1;
  s.conn_flow <- fl;
  Hashtbl.replace t.st.flows fl s.sid;
  fl

let shutdown t fd how =
  charge_syscall t;
  let s = sock_of_fd t fd in
  (match how with
  | `Read | `Both ->
    s.inbox <- [];
    s.partial <- None;
    s.peer_open <- false;
    s.eof_pending <- true
  | `Write -> ());
  match how with `Write | `Both -> s.write_shut <- true | `Read -> ()

let peek t fd ~max =
  charge t (Nyx_sim.Cost.real_packet max);
  let s = sock_of_fd t fd in
  match s.partial with
  | Some (_, data) -> Bytes.sub data 0 (min max (Bytes.length data))
  | None -> (
    match s.inbox with
    | (_, data) :: _ -> Bytes.sub data 0 (min max (Bytes.length data))
    | [] ->
      if s.eof_pending || not s.peer_open then Bytes.empty else raise (Would_block fd))

let getpeername t fd =
  charge_syscall t;
  let s = sock_of_fd t fd in
  if s.conn_flow >= 0 then Some s.conn_flow else None

let getsockname t fd =
  charge_syscall t;
  (sock_of_fd t fd).port

let setsockopt t fd name value =
  charge_syscall t;
  let s = sock_of_fd t fd in
  s.options <- (name, value) :: List.remove_assoc name s.options

let getsockopt t fd name =
  charge_syscall t;
  let s = sock_of_fd t fd in
  Option.value ~default:0 (List.assoc_opt name s.options)

type readiness = Idle | Acceptable | Readable

let readiness s =
  match (s.backlog, s.proto) with
  | _ :: _, (Tcp | Unix_sock) when s.listening -> Acceptable
  | _ -> (
    match (s.inbox, s.partial) with
    | _ :: _, _ | _, Some _ -> Readable
    | [], None -> if s.eof_pending then Readable else Idle)

(* [2 * sid] for the ready socket with the lowest sid above [above] when
   it can accept, [2 * sid + 1] when it can be read, [max_int] when none
   is ready. An int accumulator: the fold allocates nothing per socket. *)
let lowest_ready socks above =
  Hashtbl.fold
    (fun sid s best ->
      if sid <= above || 2 * sid > best then best
      else
        match readiness s with
        | Idle -> best
        | Acceptable -> 2 * sid
        | Readable -> (2 * sid) + 1)
    socks max_int

let lowest_fd fds sid =
  Hashtbl.fold (fun fd (s, _) best -> if s = sid && fd < best then fd else best) fds max_int

(* The ready socket with the lowest sid that some fd still refers to,
   reported on its lowest fd. Two folds over the tables, no hashing, no
   list: this runs on every turn of every target's event loop. A ready
   socket no fd refers to (a connection still in a backlog) is skipped
   by scanning again above its sid. *)
let rec poll_above t above =
  let key = lowest_ready t.st.socks above in
  if key = max_int then None
  else
    let fd = lowest_fd t.st.fds (key / 2) in
    if fd = max_int then poll_above t (key / 2)
    else if key land 1 = 0 then Some (`Accept fd)
    else Some (`Read fd)

let poll t =
  charge t Nyx_sim.Cost.real_syscall;
  poll_above t 0

let fork t =
  charge t Nyx_sim.Cost.fork;
  (* The child inherits every fd: bump the per-fd count and each socket's
     reference count. *)
  let entries = Hashtbl.fold (fun fd e acc -> (fd, e) :: acc) t.st.fds [] in
  List.iter
    (fun (fd, (sid, n)) ->
      Hashtbl.replace t.st.fds fd (sid, n + 1);
      let s = Hashtbl.find t.st.socks sid in
      s.refcount <- s.refcount + 1)
    entries;
  t.st.processes <- t.st.processes + 1;
  t.st.processes

(* Executor-side API *)

let connect_peer t ~port =
  (match t.backend with
  | Emulated -> Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.emulated_syscall
  | Real -> Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.real_connect);
  match Hashtbl.find_opt t.st.listeners port with
  | None -> None
  | Some sid ->
    let listener = Hashtbl.find t.st.socks sid in
    if (not listener.listening) || listener.proto = Udp then None
    else begin
      let conn = new_sock t listener.proto in
      let fl = t.st.next_flow in
      t.st.next_flow <- fl + 1;
      conn.conn_flow <- fl;
      conn.port <- 0;
      Hashtbl.replace t.st.flows fl conn.sid;
      listener.backlog <- listener.backlog @ [ conn.sid ];
      Some fl
    end

let sock_of_flow t fl =
  match Hashtbl.find t.st.flows fl with
  | exception Not_found -> invalid_arg (Printf.sprintf "Net: unknown flow %d" fl)
  | sid -> (
    match Hashtbl.find t.st.socks sid with
    | exception Not_found -> invalid_arg (Printf.sprintf "Net: flow %d socket closed" fl)
    | s -> s)

let inject_cost t len =
  match t.backend with
  | Emulated -> Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.emulated_syscall
  | Real -> Nyx_sim.Clock.advance t.clock (Nyx_sim.Cost.real_packet len)

let send_peer t fl data =
  inject_cost t (Bytes.length data);
  (* A zero-length send transfers nothing; delivering it would read as an
     orderly shutdown on the receiving side. *)
  if Bytes.length data > 0 then begin
    let s = sock_of_flow t fl in
    s.inbox <- s.inbox @ [ (fl, Bytes.copy data) ]
  end

let udp_send_peer t ~port ?flow data =
  inject_cost t (Bytes.length data);
  match Hashtbl.find_opt t.st.listeners port with
  | None -> None
  | Some sid ->
    let s = Hashtbl.find t.st.socks sid in
    if s.proto <> Udp then None
    else begin
      let fl =
        match flow with
        | Some fl -> fl
        | None ->
          let fl = t.st.next_flow in
          t.st.next_flow <- fl + 1;
          Hashtbl.replace t.st.flows fl sid;
          fl
      in
      s.inbox <- s.inbox @ [ (fl, Bytes.copy data) ];
      Some fl
    end

let close_peer t fl =
  let s = sock_of_flow t fl in
  s.peer_open <- false;
  s.eof_pending <- true

(* [take fl s mine others older] drains flow [fl]'s replies from the
   socket's newest-first queue: [older] is what is left to walk, [mine]
   the flow's replies already seen (oldest first once the walk ends) and
   [others] the rest (oldest first), which stay queued in order. When
   every reply is the flow's, [others] is empty and reversing it
   allocates nothing. *)
let rec take fl s mine others = function
  | [] ->
    s.out_rev <- List.rev others;
    mine
  | ((f, data) as r) :: older ->
    if f = fl then take fl s (data :: mine) others older else take fl s mine (r :: others) older

let responses t fl =
  (* The flow's own socket plus any UDP socket that replied via sendto. *)
  match Hashtbl.find t.st.socks (Hashtbl.find t.st.flows fl) with
  | s -> take fl s [] [] s.out_rev
  | exception Not_found ->
    Hashtbl.fold (fun _ s acc -> acc @ take fl s [] [] s.out_rev) t.st.socks []

let outbound_flows t =
  Hashtbl.fold
    (fun _ s acc -> if s.outbound && s.conn_flow >= 0 then s.conn_flow :: acc else acc)
    t.st.socks []
  |> List.sort compare

let listening_ports t =
  Hashtbl.fold
    (fun port sid acc ->
      match Hashtbl.find_opt t.st.socks sid with
      | Some s when s.listening -> (port, s.proto) :: acc
      | _ -> acc)
    t.st.listeners []
  |> List.sort compare

let open_socket_count t = Hashtbl.length t.st.socks
let syscall_count t = t.st.syscalls
