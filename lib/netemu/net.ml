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

(* A capture's template: a private deep copy of the state, never
   mutated, with what restoring from it in place needs. *)
type template = {
  st0 : state;
  socks0 : sock array; (* st0's sockets *)
  resize_at : int array;
      (* per table (socks, fds, flows, listeners): twice its bucket count.
         A table holding more bindings than that has resized. *)
}

(* What one table gained since the live state last equalled the base
   template: the keys it gained, and whether it must be re-copied whole
   instead, because a key the base holds was removed or rebound or the
   table resized. *)
type journal = {
  mutable gained : int array;
  mutable n : int;
  mutable recopy : bool;
  mutable resize_at : int;
}

type t = {
  mutable st : state;
  clock : Nyx_sim.Clock.t;
  backend : backend;
  boundaries : bool;
  mutable base : template option; (* [None] until the first capture *)
  j_socks : journal;
  j_fds : journal;
  j_flows : journal;
  j_listeners : journal;
  (* Indexes of [st]'s socks and fds tables, kept beside the state (they
     are not part of its image): sid -> socket ([dead] where the sid has
     none) and fd -> sid (0 where the fd is not open). *)
  mutable by_sid : sock array;
  mutable fd_sid : int array;
  dead : sock;
}

let blank_sock sid proto =
  {
    sid;
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

let empty_journal () = { gained = Array.make 16 0; n = 0; recopy = false; resize_at = max_int }

let create ?(backend = Emulated) ?(boundaries = true) clock =
  let dead = blank_sock 0 Tcp in
  {
    st = fresh_state ();
    clock;
    backend;
    boundaries;
    base = None;
    j_socks = empty_journal ();
    j_fds = empty_journal ();
    j_flows = empty_journal ();
    j_listeners = empty_journal ();
    by_sid = Array.make 16 dead;
    fd_sid = Array.make 16 0;
    dead;
  }

let backend t = t.backend

(* ------------------------------------------------------------------ *)
(* The journal. Every change to a table's keys goes through [gain] (a
   new key) or a [lose_*] (a key removed or rebound), so that a restore
   from the base template can undo exactly what changed since the live
   state last equalled it. Nothing is journaled before the first
   capture.                                                            *)

let gain t j tbl key =
  match t.base with
  | None -> ()
  | Some _ ->
    if j.n = Array.length j.gained then begin
      let bigger = Array.make (2 * j.n) 0 in
      Array.blit j.gained 0 bigger 0 j.n;
      j.gained <- bigger
    end;
    j.gained.(j.n) <- key;
    j.n <- j.n + 1;
    if Hashtbl.length tbl > j.resize_at then j.recopy <- true

(* A key was removed from a table or rebound: when the base holds it, the
   table no longer differs from the base by gained keys alone. Sids, fds
   and flows are numbered upward and never reused, so a live one below
   the base's counter is one the base holds. *)
let lose_sid t sid =
  match t.base with Some b when sid < b.st0.next_sid -> t.j_socks.recopy <- true | _ -> ()

let lose_fd t fd =
  match t.base with Some b when fd < b.st0.next_fd -> t.j_fds.recopy <- true | _ -> ()

let lose_flow t fl =
  match t.base with Some b when fl < b.st0.next_flow -> t.j_flows.recopy <- true | _ -> ()

let lose_port t port =
  match t.base with
  | Some b when Hashtbl.mem b.st0.listeners port -> t.j_listeners.recopy <- true
  | _ -> ()

let clear_journal j =
  j.n <- 0;
  j.recopy <- false

(* ------------------------------------------------------------------ *)
(* The socket indexes.                                                 *)

let set_sock t sid s =
  if sid >= Array.length t.by_sid then begin
    let bigger = Array.make (max (sid + 1) (2 * Array.length t.by_sid)) t.dead in
    Array.blit t.by_sid 0 bigger 0 (Array.length t.by_sid);
    t.by_sid <- bigger
  end;
  t.by_sid.(sid) <- s

let set_fd t fd sid =
  if fd >= Array.length t.fd_sid then begin
    let bigger = Array.make (max (fd + 1) (2 * Array.length t.fd_sid)) 0 in
    Array.blit t.fd_sid 0 bigger 0 (Array.length t.fd_sid);
    t.fd_sid <- bigger
  end;
  t.fd_sid.(fd) <- sid

let index_socks t =
  Array.fill t.by_sid 0 (Array.length t.by_sid) t.dead;
  Hashtbl.iter (fun sid s -> set_sock t sid s) t.st.socks

let index_fds t =
  Array.fill t.fd_sid 0 (Array.length t.fd_sid) 0;
  Hashtbl.iter (fun fd (sid, _) -> set_fd t fd sid) t.st.fds

(* ------------------------------------------------------------------ *)
(* Capture and restore. Beside its Marshal image, a capture keeps a
   template: a private deep copy of the state. A copy duplicates every
   mutable part (the hash tables, in their bucket order, the socket
   records and the packet bytes) and shares the immutable rest, so a
   restored state re-marshals to the captured image byte for byte: the
   image sets virtual time and feeds the fuzzy hash, and Marshal encodes
   sharing.

   The last capture's template is the base. A restore from it reverts
   the live state in place: each table drops the keys it gained (which
   leaves its buckets as they were), a table the journal flagged is
   re-copied whole, each template socket's record is rewritten from the
   template and the counters are reset. A restore from any other
   template (the root's, at the end of a session) installs a fresh copy
   of it, which becomes the base. *)

let copy_packet (fl, data) = (fl, Bytes.copy data)

let copy_sock s =
  {
    s with
    inbox = List.map copy_packet s.inbox;
    partial = Option.map copy_packet s.partial;
    out_rev = List.map copy_packet s.out_rev;
  }

let copy_socks socks =
  let socks = Hashtbl.copy socks in
  Hashtbl.filter_map_inplace (fun _ s -> Some (copy_sock s)) socks;
  socks

let copy_state st =
  {
    st with
    socks = copy_socks st.socks;
    fds = Hashtbl.copy st.fds;
    flows = Hashtbl.copy st.flows;
    listeners = Hashtbl.copy st.listeners;
  }

let resize_at tbl = 2 * (Hashtbl.stats tbl).Hashtbl.num_buckets

(* Option names are the one part of the state a target hands in, often
   string literals shared between sockets. A template owns private
   copies, shared among themselves as in the image, so a restored state
   shares nothing with the target — what decoding the image would give. *)
let template_of st =
  let st0 = copy_state st in
  let owned = ref [] in
  let own name =
    match List.assq_opt name !owned with
    | Some copy -> copy
    | None ->
      let copy = String.sub name 0 (String.length name) in
      owned := (name, copy) :: !owned;
      copy
  in
  let socks0 = ref [] in
  Hashtbl.iter
    (fun _ s ->
      s.options <- List.map (fun (name, v) -> (own name, v)) s.options;
      socks0 := s :: !socks0)
    st0.socks;
  {
    st0;
    socks0 = Array.of_list !socks0;
    resize_at =
      [| resize_at st0.socks; resize_at st0.fds; resize_at st0.flows; resize_at st0.listeners |];
  }

let clear_journals t =
  clear_journal t.j_socks;
  clear_journal t.j_fds;
  clear_journal t.j_flows;
  clear_journal t.j_listeners

let set_base t tpl =
  t.base <- Some tpl;
  clear_journals t;
  t.j_socks.resize_at <- tpl.resize_at.(0);
  t.j_fds.resize_at <- tpl.resize_at.(1);
  t.j_flows.resize_at <- tpl.resize_at.(2);
  t.j_listeners.resize_at <- tpl.resize_at.(3)

let rewrite s s0 =
  s.port <- s0.port;
  s.listening <- s0.listening;
  s.backlog <- s0.backlog;
  s.inbox <- List.map copy_packet s0.inbox;
  s.partial <- Option.map copy_packet s0.partial;
  s.out_rev <- List.map copy_packet s0.out_rev;
  s.peer_open <- s0.peer_open;
  s.eof_pending <- s0.eof_pending;
  s.refcount <- s0.refcount;
  s.conn_flow <- s0.conn_flow;
  s.reply_flow <- s0.reply_flow;
  s.write_shut <- s0.write_shut;
  s.options <- s0.options;
  s.outbound <- s0.outbound

let revert t tpl =
  let st0 = tpl.st0 in
  if t.j_socks.recopy || t.j_fds.recopy || t.j_flows.recopy || t.j_listeners.recopy then begin
    let st = t.st in
    let again j tbl tbl0 = if j.recopy then Hashtbl.copy tbl0 else tbl in
    t.st <-
      {
        st with
        socks = (if t.j_socks.recopy then copy_socks st0.socks else st.socks);
        fds = again t.j_fds st.fds st0.fds;
        flows = again t.j_flows st.flows st0.flows;
        listeners = again t.j_listeners st.listeners st0.listeners;
      }
  end;
  let st = t.st in
  if t.j_socks.recopy then index_socks t
  else begin
    for i = 0 to t.j_socks.n - 1 do
      let sid = t.j_socks.gained.(i) in
      Hashtbl.remove st.socks sid;
      t.by_sid.(sid) <- t.dead
    done;
    for i = 0 to Array.length tpl.socks0 - 1 do
      let s0 = tpl.socks0.(i) in
      rewrite t.by_sid.(s0.sid) s0
    done
  end;
  if t.j_fds.recopy then index_fds t
  else
    for i = 0 to t.j_fds.n - 1 do
      let fd = t.j_fds.gained.(i) in
      Hashtbl.remove st.fds fd;
      t.fd_sid.(fd) <- 0
    done;
  if not t.j_flows.recopy then
    for i = 0 to t.j_flows.n - 1 do
      Hashtbl.remove st.flows t.j_flows.gained.(i)
    done;
  if not t.j_listeners.recopy then
    for i = 0 to t.j_listeners.n - 1 do
      Hashtbl.remove st.listeners t.j_listeners.gained.(i)
    done;
  st.next_fd <- st0.next_fd;
  st.next_sid <- st0.next_sid;
  st.next_flow <- st0.next_flow;
  st.processes <- st0.processes;
  st.syscalls <- st0.syscalls;
  clear_journals t

let install t tpl =
  t.st <- copy_state tpl.st0;
  index_socks t;
  index_fds t;
  set_base t tpl

let image t = Marshal.to_bytes t.st []

let reinstate t captured tpl =
  (match t.base with Some b when b == tpl -> revert t tpl | _ -> install t tpl);
  if Nyx_sim.Sanitize.armed && not (Bytes.equal (image t) captured) then
    failwith "Net: restored state does not re-marshal to the captured image"

let register_aux t aux =
  Nyx_snapshot.Aux_state.register aux
    {
      Nyx_snapshot.Aux_state.name = "netemu";
      save =
        (fun () ->
          let captured = image t and tpl = template_of t.st in
          set_base t tpl;
          (captured, fun () -> reinstate t captured tpl));
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

(* The live socket [sid]; [Not_found] when it has closed. *)
let sock t sid =
  let s = t.by_sid.(sid) in
  if s == t.dead then raise Not_found else s

let sock_of_fd t fd =
  if fd < 0 || fd >= Array.length t.fd_sid || t.fd_sid.(fd) = 0 then raise (Bad_fd fd);
  sock t t.fd_sid.(fd)

let new_sock t proto =
  let st = t.st in
  let s = blank_sock st.next_sid proto in
  st.next_sid <- st.next_sid + 1;
  Hashtbl.replace st.socks s.sid s;
  set_sock t s.sid s;
  gain t t.j_socks st.socks s.sid;
  s

let attach_fd t s =
  let st = t.st in
  let fd = st.next_fd in
  st.next_fd <- st.next_fd + 1;
  Hashtbl.replace st.fds fd (s.sid, 1);
  set_fd t fd s.sid;
  gain t t.j_fds st.fds fd;
  s.refcount <- s.refcount + 1;
  fd

(* Target-side API *)

let socket t proto =
  charge_syscall t;
  attach_fd t (new_sock t proto)

let bind t fd port =
  charge_syscall t;
  let s = sock_of_fd t fd in
  if Hashtbl.mem t.st.listeners port then
    invalid_arg (Printf.sprintf "Net.bind: port %d already bound" port);
  s.port <- port;
  Hashtbl.replace t.st.listeners port s.sid;
  gain t t.j_listeners t.st.listeners port;
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
    attach_fd t (sock t sid)

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
  let st = t.st in
  (* The fd number disappears only when no process holds it any more;
     the socket itself dies with its last reference. *)
  (match Hashtbl.find st.fds fd with
  | sid, n when n > 1 ->
    Hashtbl.replace st.fds fd (sid, n - 1);
    lose_fd t fd
  | _ | (exception Not_found) ->
    Hashtbl.remove st.fds fd;
    t.fd_sid.(fd) <- 0;
    lose_fd t fd);
  s.refcount <- s.refcount - 1;
  if s.refcount <= 0 then begin
    if s.port <> 0 then begin
      match Hashtbl.find st.listeners s.port with
      | sid when sid = s.sid ->
        Hashtbl.remove st.listeners s.port;
        lose_port t s.port
      | _ | (exception Not_found) -> ()
    end;
    if s.conn_flow >= 0 then begin
      Hashtbl.remove st.flows s.conn_flow;
      lose_flow t s.conn_flow
    end;
    Hashtbl.remove st.socks s.sid;
    t.by_sid.(s.sid) <- t.dead;
    lose_sid t s.sid
  end

let dup t fd =
  charge_syscall t;
  attach_fd t (sock_of_fd t fd)

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
  gain t t.j_flows t.st.flows fl;
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

(* The lowest fd at or above [fd] that refers to socket [sid], or -1. *)
let rec lowest_fd t sid fd stop =
  if fd >= stop then -1
  else if Array.unsafe_get t.fd_sid fd = sid then fd
  else lowest_fd t sid (fd + 1) stop

(* The ready socket with the lowest sid that some fd still refers to,
   reported on its lowest fd: an upward scan of the sid index, each
   ready socket's fds found by a scan of the fd index. No hashing, no
   list: this runs on every turn of every target's event loop. A ready
   socket no fd refers to (a connection still in a backlog) is
   skipped. *)
let rec poll_from t sid stop =
  if sid >= stop then None
  else
    let s = Array.unsafe_get t.by_sid sid in
    if s == t.dead then poll_from t (sid + 1) stop
    else
      match readiness s with
      | Idle -> poll_from t (sid + 1) stop
      | ready -> (
        let fd = lowest_fd t sid 0 (min t.st.next_fd (Array.length t.fd_sid)) in
        if fd < 0 then poll_from t (sid + 1) stop
        else match ready with Acceptable -> Some (`Accept fd) | _ -> Some (`Read fd))

let poll t =
  charge t Nyx_sim.Cost.real_syscall;
  poll_from t 1 (min t.st.next_sid (Array.length t.by_sid))

let fork t =
  charge t Nyx_sim.Cost.fork;
  (* The child inherits every fd: bump the per-fd count and each socket's
     reference count. *)
  let entries = Hashtbl.fold (fun fd e acc -> (fd, e) :: acc) t.st.fds [] in
  List.iter
    (fun (fd, (sid, n)) ->
      Hashtbl.replace t.st.fds fd (sid, n + 1);
      lose_fd t fd;
      let s = sock t sid in
      s.refcount <- s.refcount + 1)
    entries;
  t.st.processes <- t.st.processes + 1;
  t.st.processes

(* Executor-side API *)

let connect_peer t ~port =
  (match t.backend with
  | Emulated -> Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.emulated_syscall
  | Real -> Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.real_connect);
  match Hashtbl.find t.st.listeners port with
  | exception Not_found -> None
  | sid ->
    let listener = sock t sid in
    if (not listener.listening) || listener.proto = Udp then None
    else begin
      let conn = new_sock t listener.proto in
      let fl = t.st.next_flow in
      t.st.next_flow <- fl + 1;
      conn.conn_flow <- fl;
      conn.port <- 0;
      Hashtbl.replace t.st.flows fl conn.sid;
      gain t t.j_flows t.st.flows fl;
      listener.backlog <- listener.backlog @ [ conn.sid ];
      Some fl
    end

let sock_of_flow t fl =
  match Hashtbl.find t.st.flows fl with
  | exception Not_found -> invalid_arg (Printf.sprintf "Net: unknown flow %d" fl)
  | sid -> (
    match sock t sid with
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
  match Hashtbl.find t.st.listeners port with
  | exception Not_found -> None
  | sid ->
    let s = sock t sid in
    if s.proto <> Udp then None
    else begin
      let fl =
        match flow with
        | Some fl -> fl
        | None ->
          let fl = t.st.next_flow in
          t.st.next_flow <- fl + 1;
          Hashtbl.replace t.st.flows fl sid;
          gain t t.j_flows t.st.flows fl;
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
  match sock t (Hashtbl.find t.st.flows fl) with
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
