(** Affine-typed opcode specifications (§2.2 "Nyx's Affine Typed Bytecode").

    A spec declares the interactions possible with a target: each {e node
    type} (opcode) may {e borrow} previously produced values, {e consume}
    them (affine use — at most once), produce {e outputs}, and carry raw
    {e data} fields. The fuzzer derives a bytecode format, an interpreter
    and mutators from the spec.

    Node type id 0 is always the reserved [snapshot] opcode the fuzzer
    injects to request an incremental snapshot (§4.3); it takes no
    arguments and carries no data. *)

type edge_ty = { et_id : int; et_name : string }
(** A value type flowing between opcodes (e.g. a connection handle). *)

type data_ty = { dt_id : int; dt_name : string; max_len : int }
(** A raw data field (e.g. packet payload). *)

type node_ty = private {
  nt_id : int;
  nt_name : string;
  borrows : edge_ty list;
  consumes : edge_ty list;
  outputs : edge_ty list;
  data : data_ty list;
  slot_ids : int array;
      (** edge-type ids of the input slots: the borrows, then the consumes.
          This and the fields below are derived from the lists once, by
          {!node_type} (the only way to build a node type), for the code
          that runs on every op; the arrays are read, never written. *)
  n_borrows : int;  (** the borrows' count: slots below it are borrows *)
  output_ids : int array;  (** edge-type ids of the outputs, in order *)
  n_data : int;  (** the data fields' count *)
}

type t

val snapshot_node_id : int
(** Always 0. *)

(** {1 Declaring a spec} *)

type builder

val start : string -> builder
val edge_type : builder -> string -> edge_ty
val data_type : builder -> ?max_len:int -> string -> data_ty
(** [max_len] defaults to 4096. *)

val node_type :
  builder ->
  ?borrows:edge_ty list ->
  ?consumes:edge_ty list ->
  ?outputs:edge_ty list ->
  ?data:data_ty list ->
  string ->
  node_ty

val finalize : builder -> t

(** {1 Queries} *)

val name : t -> string
val node : t -> int -> node_ty
(** @raise Invalid_argument on unknown id. *)

val node_by_name : t -> string -> node_ty
(** @raise Not_found. *)

val nodes : t -> node_ty array
(** All node types, including the snapshot opcode at index 0. *)

val node_count : t -> int
(** [Array.length (nodes t)] without the copy: ids [0 .. node_count t - 1]
    are exactly the known node types. *)

val snapshot_node : t -> node_ty
