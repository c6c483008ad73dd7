(** Shared FTP server engine.

    ProFuzzBench contains four FTP servers (bftpd, lightftp, proftpd,
    pure-ftpd) that differ in command surface, authentication behaviour
    and bugs. This engine implements the common RFC 959 state machine;
    each target instantiates it with its own command subset, coverage
    namespace and a [special] hook for target-specific commands and
    planted bugs. *)

type special_args = {
  ctx : Ctx.t;
  g : int;  (** global state guest address *)
  conn : int;  (** per-connection state guest address *)
  cmd : string;  (** uppercased verb *)
  arg : string;
  reply : bytes -> unit;
}

type config = {
  name : string;  (** coverage namespace — keeps per-target edges distinct *)
  banner : string;
  require_auth : bool;
  commands : string list;  (** supported verbs (uppercase) *)
  special : (special_args -> bool) option;
      (** Runs before generic dispatch; return [true] when handled. *)
}

val conn_state_size : int
val global_state_size : int

(** Guest-state field offsets, exposed for [special] hooks and tests. *)
module Field : sig
  val auth : int  (** 0 = none, 1 = USER given, 2 = logged in *)

  val ty : int  (** 0 = ASCII, 1 = binary *)

  val passive : int
  val rnfr_pending : int
  val rest_offset : int
  val cwd_depth : int
  val g_connections : int
  val g_stored_count : int
  val g_stored_hash : int
end

val hooks : config -> Target.hooks

val reply_str : (bytes -> unit) -> int -> string -> unit
(** [reply_str reply code text] sends ["<code> <text>\r\n"], formatted
    straight into one buffer. *)

val standard_commands : string list
(** The full command set; targets usually pass a subset. *)

val sample_session : string list
(** A canned command sequence (CRLF-terminated) usable as seed traffic. *)
