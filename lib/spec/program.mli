(** Bytecode programs: sequences of opcodes over a {!Spec.t}.

    A program is the fuzzer's test case: the flat serialized form is what
    lives in the corpus, and the structured form is what the interpreter
    executes and the mutators edit. Executing ops produces a global
    sequence of values; argument slots refer to earlier values by index.
    The [snapshot] opcode (node 0) may appear at most once and delimits
    the prefix executed before the incremental snapshot is taken.

    Programs are immutable values. The arrays are mutable in OCaml, but
    no code writes into a program's [ops], an op's [args] or its [data]
    (or the bytes inside): every editor copies first
    ({!Mutator.mutate}'s payload havoc, the minimizer's shrinking and
    canonicalizing steps). So ops, payloads and whole programs may be
    shared between corpus entries and mutants; {!repair} relies on this
    when it returns unchanged ops physically shared with its input. *)

type op = { node : int; args : int array; data : bytes array }

type t = { spec : Spec.t; ops : op array }

val validate : t -> (unit, string) result
(** Structural well-formedness: known nodes, arity, argument indices in
    range and type-correct, affine use (a consumed value is never used
    again, not even by a later slot of the op that consumes it), data
    lengths within bounds, at most one snapshot opcode. One pass over an
    int value table; it allocates the table and, on failure, the
    message of the first problem. *)

val packet_count : t -> int
(** Number of ops excluding snapshot opcodes — the "input length" used by
    the snapshot placement policies. *)

val snapshot_index : t -> int option
(** Number of non-snapshot ops preceding the snapshot opcode, if present. *)

val with_snapshot_at : t -> int -> t
(** [with_snapshot_at p i] strips existing snapshot ops and inserts one
    after the first [i] packets. [i = 0] yields a leading snapshot;
    [i >= packet_count p] places it after the last packet (clamped). *)

val strip_snapshots : t -> t
(** The program without its snapshot ops. A program that has none is
    returned as is (physically equal), allocating nothing. *)

val repair : ?rng:Nyx_sim.Rng.t -> t -> t
(** Rebind dangling or type-incorrect argument indices to available values
    of the right type (most recent by default, random with [rng]) and drop
    ops whose inputs cannot be satisfied; clamp oversized data. Unknown
    opcodes and every snapshot opcode after the first are dropped. The
    result always passes {!validate}.

    Valid bindings are kept verbatim: an op whose bindings are all usable
    and whose data fit is returned physically, and a program that needs
    no change is returned as is. With [rng], each slot that needs a new
    value makes one [Rng.int] draw over the live values of its type
    (newest first), so a valid program costs no draw. One linear pass;
    it allocates only for the ops it changes. *)

(** {1 Wire format} *)

val serialize : t -> bytes
val parse : Spec.t -> bytes -> (t, string) result
(** Parses and validates. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing, e.g. for crash reports. *)
