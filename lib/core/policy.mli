(** Snapshot placement policies (§3.4).

    Decides, each time an input is scheduled, whether and where to inject
    the snapshot opcode:

    - {b none}: always the root snapshot (the baseline configuration);
    - {b balanced}: for inputs longer than four packets, 4% root,
      otherwise a random index over the whole input (50%) or only its
      second half (50%);
    - {b aggressive}: cycles indices starting at the end of the input;
      each time fuzzing a snapshot yields nothing new for a full reuse
      round, the snapshot moves one packet earlier, wrapping around;
    - {b dynamic}: adaptive placement driven by a measured amortized cost
      model. One protocol-state boundary probe per entry (the StateAFL
      idea: a fuzzy hash over the captured aux state) yields candidate
      indices; the policy then keeps per-entry running estimates of
      prefix-replay cost, per-suffix cost, dirty-set size and staleness,
      and places (and occasionally re-places) the snapshot at the index
      minimizing expected virtual ns per execution. A move must beat the
      current placement's estimate by a fixed margin and is followed by a
      cooldown, so thrashing is impossible. Every input is measured on the
      virtual clock — decisions are bit-identical across domain counts and
      checkpoint/resume. *)

type kind = None_ | Balanced | Aggressive | Dynamic

type t

val name : kind -> string
(** ["nyx-net-none"], ["nyx-net-balanced"], ["nyx-net-aggressive"],
    ["nyx-net-dynamic"]. *)

val of_name : string -> (kind, string) result

val create : kind -> Nyx_sim.Rng.t -> t

val kind : t -> kind

val is_dynamic : t -> bool

val reuse_count : int
(** How many mutated test cases run against one incremental snapshot
    before it is discarded (50 — §3.4's empirical constant). *)

val min_packets_for_snapshot : int

val decide : t -> input_id:int -> packets:int -> [ `Root | `At of int ]
(** [`At i] places the snapshot after the first [i] packets
    (0 < i < packets). Inputs of at most four packets always use the
    root. For [Dynamic], call {!prepare_dynamic} (and, if asked,
    {!set_boundaries}) first. *)

val notify_no_news : t -> input_id:int -> unit
(** The last reuse round for this input found nothing. Aggressive: move
    its snapshot index one packet earlier. Dynamic: charge staleness to
    the input's current placement, steering the cost model away from it.
    No-op for the other kinds. *)

val notify_news : t -> input_id:int -> unit
(** Dynamic only: the last round found new coverage — reset the current
    placement's staleness. No-op (and never called by the static
    campaign paths' behavior) for the other kinds. *)

(** {2 Dynamic placement lifecycle}

    All are no-ops / [`Ready] unless the policy is [Dynamic]. *)

val prepare_dynamic :
  t -> input_id:int -> packets:int -> full_ns:int -> [ `Probe | `Ready ]
(** Ensure the per-entry adaptive state exists, seeding the full-execution
    estimate with [full_ns] (typically the corpus entry's recorded
    [exec_ns]). [`Probe] means the entry still needs its one-time
    state-boundary probe — run {!Executor.state_boundaries} and feed the
    result to {!set_boundaries} before {!decide}. *)

val set_boundaries :
  ?hashed:int ->
  ?skipped:int ->
  t ->
  input_id:int ->
  packets:int ->
  boundaries:int list ->
  unit
(** Record the probe's result. Indices are clamped to the interior
    [1..packets-1]; an empty result degrades to the single candidate
    [packets-1] (deepest placement — the aggressive heuristic).
    [hashed]/[skipped] are the probe's hash counts
    ({!Executor.last_probe_hashed}/[last_probe_skipped]), accumulated
    into {!placement_stats} to surface what the static boundary prior
    saved. *)

val observe_full : t -> input_id:int -> ns:int -> unit
(** Fold a measured full (root) execution into the entry's EWMA. *)

val observe_session :
  t -> input_id:int -> idx:int -> setup_ns:int -> round_ns:int -> pages:int -> unit
(** Fold a measured session at snapshot index [idx]: [setup_ns] is the
    prefix replay + snapshot create, [round_ns] the average per-suffix
    execution, [pages] the dirty pages the create copied. *)

val last_move : t -> (int * int * int) option
(** [(input_id, from, to)] when the immediately preceding {!decide}
    relocated a snapshot ([from]/[to] are indices, 0 = root); cleared by
    every [decide]. Placement index 0 is the root. For trace emission. *)

val placement_stats : t -> Report.placement_stats option
(** Dynamic only ([None] otherwise): probe/move/boundary counters and the
    current placement of every placed entry. *)

(** {2 Checkpoint section} *)

val save : t -> bytes
(** The policy's RNG state and its per-entry tables (aggressive cursors,
    dynamic placement state). *)

val load : t -> bytes -> unit
(** Overwrite the policy with a {!save}d section; the policy is
    unchanged when the section is rejected.
    @raise Nyx_sim.Wire.Corrupt on a malformed section. *)
