(** Typed fault transforms for the cooperating peer's encoder.

    The peer (see {!Peer_script} / {!Peer_driver}) always {e encodes} a
    protocol-correct message first; an armed fault from the campaign's
    {!Nyx_resilience.Plan} then perturbs the encoded wire image in one of
    six typed ways (the [Peer_*] sites of {!Nyx_resilience.Fault}). Each
    transform is a pure function of the fault's provenance (its plan-wide
    and per-site ordinals) and the message — no RNG is consulted — so a
    resumed or re-run campaign perturbs the exact same bytes.

    Messages carry a light field annotation (length fields, droppable
    fields, an optional reframe function that re-seals the outer framing
    after surgery), which is what lets the faults be {e semantic}: a
    length field that lies while the framing stays valid reaches much
    deeper parser states than a random byte flip ever would. *)

type field_kind =
  | Outer_len  (** the transport framing length (e.g. MySQL's 3-byte LE
                   packet length, the DTLS record length) *)
  | Inner_len  (** a nested length the parser trusts (e.g. MySQL's
                   auth-plugin-data length, a DTLS fragment length) *)
  | Field  (** an ordinary droppable region (argument, cookie, salt) *)

type field = {
  f_name : string;
  f_kind : field_kind;
  f_pos : int;  (** byte offset in the wire image *)
  f_len : int;
  f_big_endian : bool;  (** length-field byte order (ignored for [Field]) *)
}

type message = {
  m_name : string;
  m_bytes : bytes;
      (** the honest wire image. Never written: a script's messages are
          built once and shared by every session and domain, and {!apply}
          copies before any surgery. *)
  m_fields : field list;  (** annotations; out-of-range entries ignored *)
  m_reframe : (bytes -> bytes) option;
      (** re-seal outer framing after the body changed length. It is only
          ever handed a private buffer, never [m_bytes], so it may write
          into its argument. *)
}

val plain : string -> bytes -> message
(** A message with no annotations (line protocols). *)

val apply : Nyx_resilience.Fault.t -> message -> bytes list * string
(** [apply fault msg] is the perturbed wire image(s) — a list because
    [Peer_duplicate] emits the message twice — plus a human-readable
    detail string for traces. Deterministic in [(fault.seq,
    fault.site_seq, msg)]. The images are computed in one pass with the
    values the detail reports; the detail is formatted only while a trace
    sink is on ({!Nyx_obs.Trace.on}) and is [""] for most transforms
    otherwise. An image may be [msg.m_bytes] itself (duplicate sends it
    twice), so callers only read the images. Every transform degrades
    gracefully on messages too small or unannotated for its preferred
    surgery (falling back to a byte flip at worst), so it never raises on
    a peer site.
    @raise Invalid_argument if [fault.site] is not a peer site. *)

val parse_spec : string -> (Nyx_resilience.Plan.spec, string) result
(** Parse a [--peer-faults] spec ([site:rate,...]). Accepts the full site
    names ([peer-flip], ...), their short forms ([flip], [truncate],
    [duplicate], [length-lie], [desync-frame], [drop-field]) and [all]
    (every peer site). Errors name the offending item and list the valid
    sites. Non-peer sites (e.g. [wedge]) are rejected — those belong in
    [--faults]. *)
