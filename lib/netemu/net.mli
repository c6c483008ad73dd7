(** Emulated POSIX networking — the Nyx-Net agent's hook surface (§3.3, §4.1).

    The real system injects an [LD_PRELOAD] library hooking ~30 libc
    functions so that reads on the target connection are served from the
    fuzzer's bytecode stream instead of the kernel. Here the same surface
    is a module: targets are written against {!socket}/{!accept}/{!recv}/
    {!poll}/... and the executor injects connections and packets from the
    other side.

    Two backends model the performance claim:
    - {!Emulated}: every hooked call costs {!Nyx_sim.Cost.emulated_syscall};
    - {!Real}: calls cross a real kernel (higher syscall cost, TCP
      handshakes, per-packet stack traversal) — what AFLNet and friends pay.

    Packet-boundary semantics follow §3.3: one [recv] never returns bytes
    of more than one injected packet (servers rely on this even though TCP
    does not guarantee it); setting [boundaries:false] coalesces the stream
    instead — an ablation knob.

    All state is closure-free and registered with {!Nyx_snapshot.Aux_state},
    so whole-VM snapshots capture and restore kernel socket state exactly
    like the real system. A capture's image is the state's [Marshal]
    bytes, and it keeps a template, a private copy of the state; a
    restore never decodes the image. The last capture's template is the
    base: the stack journals the keys its tables gain after that, and a
    restore from the base reverts that journal in place, re-copying only
    a table that lost or rebound a base key or resized, and rewriting the
    base's socket records. A restore from any other template (the root's)
    falls back to installing a fresh copy of it, which becomes the base.
    Under [NYX_SANITIZE] every restore checks that the state re-marshals
    to the captured bytes.

    Sockets are found by index: the stack keeps sid -> socket and fd ->
    sid arrays beside the state, so {!poll} and fd lookups do not hash. *)

type t

type fd = int
type flow = int
(** Executor-side connection identifier. *)

type proto = Tcp | Udp | Unix_sock

type backend = Emulated | Real

exception Would_block of fd
(** Raised when a call would block — targets must only call {!recv} /
    {!accept} after {!poll} reported readiness. *)

exception Bad_fd of fd

val create : ?backend:backend -> ?boundaries:bool -> Nyx_sim.Clock.t -> t
(** [boundaries] defaults to [true]. *)

val register_aux : t -> Nyx_snapshot.Aux_state.t -> unit
(** Register this stack's state for whole-VM snapshots. *)

val image : t -> bytes
(** The state's [Marshal] image: what a capture records, and what a
    restore must reproduce byte for byte. *)

val backend : t -> backend

(** {1 Target-side API (the hooked libc functions)} *)

val socket : t -> proto -> fd
val bind : t -> fd -> int -> unit
(** [bind t fd port]. @raise Invalid_argument if the port is taken. *)

val listen : t -> fd -> unit
val accept : t -> fd -> fd
(** @raise Would_block when the backlog is empty. *)

val connect_out : t -> fd -> port:int -> flow
(** Client-side connect: attach the socket to a remote service the fuzzer
    impersonates (§5.4 — fuzzing clients means playing the server). The
    returned flow is what the executor feeds with {!send_peer}; the
    executor discovers it via {!outbound_flows}. *)

val recv : t -> fd -> max:int -> bytes
(** Empty bytes = orderly shutdown (EOF). At most one packet's bytes per
    call when boundary emulation is on. @raise Would_block. *)

val recvfrom : t -> fd -> max:int -> bytes * flow
(** Datagram receive; excess bytes beyond [max] are truncated (UDP
    semantics). *)

val send : t -> fd -> bytes -> int
(** Send to the connected peer (TCP) or to the last {!recvfrom} peer
    (connectionless reply). Returns bytes written. *)

val sendto : t -> fd -> flow -> bytes -> int

val close : t -> fd -> unit
(** Drops one fd reference; the underlying socket closes when the last
    reference (dup'd fds, forked processes) goes away. *)

val dup : t -> fd -> fd

val shutdown : t -> fd -> [ `Read | `Write | `Both ] -> unit
(** Half-close: [`Read] discards queued input and makes further reads
    return EOF; [`Write] stops further sends ([send] then raises
    [Invalid_argument], as EPIPE). *)

val peek : t -> fd -> max:int -> bytes
(** recv with MSG_PEEK: returns the next packet's bytes without
    consuming them. @raise Would_block like {!recv}. *)

val getpeername : t -> fd -> flow option
(** The connected peer's flow id, if this is a connection socket. *)

val getsockname : t -> fd -> int
(** The socket's bound local port (0 when unbound). *)

val setsockopt : t -> fd -> string -> int -> unit
(** Record a socket option (servers set REUSEADDR/NODELAY and later
    read them back). *)

val getsockopt : t -> fd -> string -> int
(** Last value set, 0 by default. *)

val poll : t -> [ `Accept of fd | `Read of fd ] option
(** The select/poll/epoll emulation: the next ready descriptor, or [None]
    when the target would block. The order is exact and deterministic:
    among the ready sockets that some fd still refers to, the one
    created first (lowest internal socket id), reported on its lowest
    fd. A ready socket no fd refers to (a connection still in a backlog,
    or orphaned by its listener's close) is skipped. The event is
    [`Accept] for a listening non-UDP socket with a non-empty backlog,
    and [`Read] for a socket with queued input, an unread packet tail or
    a pending EOF. *)

val fork : t -> int
(** Fork bookkeeping: the child shares the fd table (how forking servers
    inherit the listening socket). Returns the new process count. *)

(** {1 Executor-side API (the fuzzer injecting traffic)} *)

val connect_peer : t -> port:int -> flow option
(** Open a client connection to a listening TCP/Unix socket; [None] when
    nothing listens (connection refused). *)

val send_peer : t -> flow -> bytes -> unit
(** Inject one packet on an established flow.
    @raise Invalid_argument on an unknown flow. *)

val udp_send_peer : t -> port:int -> ?flow:flow -> bytes -> flow option
(** Inject a datagram to a bound UDP socket, creating a flow on first use;
    [None] when no socket is bound to [port]. *)

val close_peer : t -> flow -> unit
(** Peer-side orderly shutdown: the target's next [recv] returns EOF. *)

val responses : t -> flow -> bytes list
(** Drain everything the target sent on this flow (oldest first). *)

val outbound_flows : t -> flow list
(** Flows created by the target's own {!connect_out} calls, oldest
    first — the attack surface of a client target. *)

val listening_ports : t -> (int * proto) list
(** Ports with listening/bound sockets — how the fuzzer discovers the
    attack surface during startup tracking. *)

val open_socket_count : t -> int
val syscall_count : t -> int
