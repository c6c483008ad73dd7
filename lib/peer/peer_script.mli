(** Scripted protocol-correct peers.

    A peer script is the cooperating endpoint for one target: a client
    for server targets (the FTP servers, tinydtls), a server for client
    targets (mysql-client). It exposes a palette of {e actions} — each
    one honest protocol step, encoded through {!Peer_fault.message} so
    the encoder's fault sites know where the length fields and droppable
    regions live — plus a tiny expectation machine ([a_expect]) the
    driver uses to detect that the conversation has desynchronized.

    In [--mode peer] the affine program's packet payloads select actions
    and fault sites instead of carrying raw bytes: byte 0 picks the
    action (mod the palette size), byte 1 picks the encoder fault site to
    arm for that action (0 = none; the plan's rate still decides whether
    it fires). The mutation engines therefore explore the product of
    protocol-correct action orderings and typed encoder faults — the
    Fuzztruction-Net observation that a slightly-wrong peer reaches
    states a byte-level mutator cannot. *)

type action = {
  a_name : string;
  a_messages : Peer_fault.message list;
      (** the honest wire image(s) for this action, built once *)
  a_next : stage:int -> int;  (** stage transition on met expectation *)
  a_expect : bytes -> bool;
      (** does the (concatenated) response satisfy the protocol? *)
}

type t = {
  p_target : string;  (** target name this script cooperates with *)
  p_actions : action array;
  p_banner : (bytes -> bool) option;
      (** greeting expected right after connect (TCP client peers) *)
  p_quarantine_after : int;
      (** consecutive desyncs before the session is quarantined *)
  p_seed_actions : int list list;
      (** canned honest sessions, as action indices — the peer-mode seed
          corpus *)
}

val find : string -> t option
(** The script cooperating with the named target, if one exists. Each
    script is built once, at load, and [find] returns that one shared
    value ([find n == find n]): campaigns and fleet domains share its
    messages, which nothing writes. *)

val supported : unit -> string list
(** Target names with a peer script, for CLI diagnostics. *)

val payload_of : ?fault:int -> int -> bytes
(** [payload_of ~fault action] encodes one peer-mode packet payload:
    byte 0 the action index, byte 1 the fault selector (0 = none,
    1..6 = {!Nyx_resilience.Fault.peer_sites} in order). The driver
    reads them back with the three functions below; an empty payload
    is a no-op packet. *)

val payload_action : t -> bytes -> int
(** The action index of a non-empty payload (byte 0 mod the palette
    size), without allocating. *)

val payload_selector : bytes -> int
(** The fault selector of a payload: byte 1 mod 7, or 0 when the payload
    is shorter than 2 bytes. 0 arms no fault; 1..6 is the index plus one
    of a site in {!Nyx_resilience.Fault.peer_sites}. *)

val selector_site : int -> Nyx_resilience.Fault.site
(** The peer site of a selector in 1..6, by array index. *)

val expect_code : string list -> bytes -> bool
(** Some line of the reply, blanks trimmed as by [String.trim], starts
    with one of the 3-character codes (a code of another length never
    matches). The FTP scripts' expectation; it scans the bytes in place. *)

val seed_programs : t -> Nyx_spec.Net_spec.t -> Nyx_spec.Program.t list
(** One program per canned session: connect, then one packet per action
    (fault selector 0 — seeds are honest). *)
