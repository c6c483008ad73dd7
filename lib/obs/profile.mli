(** Per-phase cost profile of a fuzzing campaign (the paper's Table 3 /
    Figure 6 breakdown, applied to ourselves).

    A profile accumulates, per phase, how much {e virtual} time the
    campaign spent and how often the phase ran, plus the real wall-clock
    self-time as an informational column. Spans nest: a span records its
    self-time (its clock extent minus that of spans opened inside it), so
    phase totals never double-count and — together with the [Other]
    remainder computed by {!snapshot} — always sum to exactly the
    campaign's [virtual_ns].

    Phases map to the paper's reset-cost analysis (Table 3) as follows:
    [Reset] is snapshot-restore work (root and incremental), the paper's
    "reset" column; [Prefix_replay] is executing the message prefix up to
    the snapshot opcode (charged once per session); [Suffix_exec] is test
    execution proper (both whole-program runs from the root and suffix
    runs against an incremental snapshot); [Snapshot_create] is
    incremental-snapshot creation (Figure 6's create cost); [Snapshot_place] is the
    dynamic placement policy's own work — protocol-state boundary probes
    and cost-model decisions (zero for the static policies); [Cov_merge]
    and [Trim] are fuzzer bookkeeping with no paper analogue (virtually
    free and trim-only respectively); [Corpus_sync] is fleet sync-epoch
    work (judging and importing peer-exported programs — what fraction of
    fleet virtual time corpus sharing costs); [Mutation] is the mutation
    engine's candidate construction (splice/generate walks and offline
    verification — virtually free like the real system's mutation CPU,
    so the count and wall columns carry the signal); [Peer] is the
    cooperating peer driver's work in [--mode peer] campaigns — scripted
    encoding, fault application and supervised desync recovery (zero for
    bytecode campaigns); [Other] is everything unattributed (target boot,
    root-snapshot creation).

    Accumulation is purely observational: it reads the virtual clock and
    the wall clock but never advances either, so a profiled campaign
    produces bit-identical results to an unprofiled one. A profile is
    owned by a single campaign (one domain) — it holds no locks. *)

type phase =
  | Reset
  | Prefix_replay
  | Suffix_exec
  | Snapshot_create
  | Snapshot_place
  | Cov_merge
  | Trim
  | Corpus_sync
  | Mutation
  | Peer
  | Other

val phase_name : phase -> string
(** Lowercase hyphenated name, e.g. ["prefix-replay"]. *)

type t

val create : unit -> t

val span : t -> phase -> Nyx_sim.Clock.t -> (unit -> 'a) -> 'a
(** [span t phase clock f] runs [f], attributing the virtual time it
    advances [clock] by — minus any nested [span]'s share — to [phase]
    (self-time accounting). Under {!with_override} the given [phase] is
    ignored in favour of the override. Exceptions propagate; the span is
    still recorded. *)

val with_override : t -> phase -> (unit -> 'a) -> 'a
(** Attribute every span opened during [f] to the given phase, whatever
    phase its site names — how trim charges its internal resets and
    executions to [Trim]. Restores the previous override on exit. *)

(** {2 Checkpoint section} *)

val save : t -> bytes
(** The deterministic accumulators (counts and virtual self-times).
    Wall-clock columns are informational and excluded. *)

val load : t -> bytes -> unit
(** Overwrite the deterministic accumulators with a {!save}d section
    (unchanged when it is rejected); wall-clock columns restart from zero
    (a resumed campaign reports only post-resume wall time).
    @raise Nyx_sim.Wire.Corrupt on a malformed section. *)

(** {2 Snapshots} *)

type entry = {
  phase : phase;
  count : int;  (** spans recorded *)
  virtual_ns : int;  (** virtual self-time *)
  wall_s : float;  (** wall-clock self-time; informational only *)
}

type snapshot = {
  entries : entry list;  (** one per phase, fixed declaration order *)
  total_virtual_ns : int;
  total_wall_s : float;
}

val snapshot : t -> total_virtual_ns:int -> total_wall_s:float -> snapshot
(** Freeze the accumulated profile. [Other] receives the remainder
    [total_virtual_ns - sum(measured)], so the snapshot's virtual times
    sum to [total_virtual_ns] exactly. *)

val sum_virtual_ns : snapshot -> int
(** Sum of the entries' [virtual_ns] — equals [total_virtual_ns] by
    construction; exposed so tests can assert the identity. *)

val pp : Format.formatter -> snapshot -> unit
(** Pretty table: phase, count, virtual ns, share of total, wall s. *)

val to_json : snapshot -> string
(** The snapshot as a JSON object (phases array + totals). *)
