(** Checked big-endian binary framing.

    The one encoding behind every file this project persists: campaign
    checkpoints (NYXCKP2), their per-component sections and fleet
    checkpoints (NYXFLT2). Every integer and length is one big-endian
    int64. Readers check every length and element count against the
    bytes left, so malformed input raises {!Corrupt} and never makes a
    reader allocate for more elements than the input has bytes. *)

exception Corrupt of string

(** {2 Writing} *)

val add_i64 : Buffer.t -> int64 -> unit
val add_int : Buffer.t -> int -> unit
val add_bool : Buffer.t -> bool -> unit

val add_bytes : Buffer.t -> bytes -> unit
(** Length-prefixed bytes. *)

val add_str : Buffer.t -> string -> unit
val add_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

val add_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** Count-prefixed elements. *)

val add_int_array : Buffer.t -> int array -> unit

val to_bytes : (Buffer.t -> unit) -> bytes
(** The bytes a writer produces: how an owner module renders its
    checkpoint section. *)

(** {2 Reading} *)

type cursor

val cursor : magic:string -> bytes -> cursor
(** A reader positioned after [magic]. @raise Corrupt if the input does
    not start with it; the message names the version when the input
    carries another version of the same magic (every character but the
    last). *)

val get_i64 : cursor -> int64
val get_int : cursor -> int
val get_bool : cursor -> bool
val get_bytes : cursor -> bytes
val get_str : cursor -> string
val get_opt : (cursor -> 'a) -> cursor -> 'a option
val get_list : (cursor -> 'a) -> cursor -> 'a list
val get_int_array : cursor -> int array

val expect_end : cursor -> unit
(** @raise Corrupt unless the whole input has been read. *)

val of_bytes : (cursor -> 'a) -> bytes -> 'a
(** Run a reader over the whole of a magic-less input (a checkpoint
    section). @raise Corrupt on malformed input or trailing bytes. *)
