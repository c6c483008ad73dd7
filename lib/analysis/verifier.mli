(** Program verifier: eBPF-verifier-style abstract interpretation of a
    bytecode program over an available/consumed value lattice.

    Where {!Nyx_spec.Program.validate} stops at the first structural
    problem, this pass walks the whole program, tracks every value's
    provenance (producer op, borrow sites, consume site) and reports all
    findings with precise op indices.

    Error diagnostics (any one means [Program.validate] also fails):
    [unknown-opcode], [bad-arity], [dangling-arg], [type-mismatch],
    [affine-use-after-consume] (with the produced-at / consumed-at
    provenance chain), [multiple-snapshots], [snapshot-carries-payload],
    [bad-data-arity], [data-too-long].

    Warning diagnostics (legal but wasteful, invisible to [validate]):
    [dead-value] (produced, never borrowed/consumed), [noop-interaction]
    (all data fields empty, no outputs/consumes), [leading-snapshot] /
    [trailing-snapshot] (degenerate incremental-snapshot placement,
    cf. §4.3), [data-at-bound] (a field saturating its [max_len] leaves
    mutations no growth headroom). *)

val check : Nyx_spec.Program.t -> Diag.t list
(** All diagnostics, in op order (dead-value warnings last). *)

val errors : Nyx_spec.Program.t -> Diag.t list
(** Error-severity findings only. Empty iff [validate] would accept the
    program (modulo the first-error-only difference). *)

val is_clean : Nyx_spec.Program.t -> bool
(** [errors p = []], decided as [Result.is_ok (Program.validate p)]: one
    pass over a value table that builds no diagnostic. *)

val hotspot_min_bound : int
(** Smallest [max_len] the [data-at-bound] hotspot warning applies to. *)
