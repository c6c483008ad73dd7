(** Pluggable mutation engines over the affine bytecode IR.

    An engine hosts a set of named {e mutators} — functions from a
    program to a candidate program — behind one deterministic,
    RNG-threaded entry point ({!mutate}). Mutators carry static base
    weights plus an EWMA {e coverage credit} the campaign feeds back
    after every execution ({!credit}): mutators whose candidates keep
    finding new coverage are selected more often, Fuzzilli-style.

    Determinism contract: every draw an engine makes comes from the
    [Rng.t] passed to {!mutate}; an engine holds no hidden randomness
    and no wall-clock state, so equal seeds give equal candidate
    sequences whatever NYX_DOMAINS says. A single-mutator engine makes
    {e no} selection draw — the byte/havoc engine therefore replays the
    exact historical draw sequence of the bare
    {!Nyx_spec.Mutator.mutate} call and keeps golden results
    byte-identical.

    Counter/credit updates ({!credit}) draw nothing and touch no clock:
    they are pure accumulator arithmetic, checkpointed via {!save} so
    kill+resume replays the same effective weights. *)

(** Per-call mutation context, assembled by the campaign each round. *)
type ctx = {
  mx_frozen : int;
      (** ops [0..mx_frozen) are the snapshot prefix and must survive
          mutation verbatim (0 for root-snapshot rounds) *)
  mx_max_ops : int;  (** total op cap, frozen prefix included *)
  mx_dict : bytes list;  (** token dictionary (target + auto-extracted) *)
  mx_corpus : Program.t array;  (** splice donor pool, newest first *)
}

type mutator = {
  m_name : string;  (** stable name: weights, stats and checkpoints key on it *)
  m_base : float;  (** static base weight (> 0) *)
  m_fn : Nyx_sim.Rng.t -> ctx -> Program.t -> Program.t option;
      (** [None] means "no candidate from this angle" (e.g. no
          state-compatible splice point, or the verifier rejected the
          candidate); the engine then falls back to mutator 0, which by
          convention must be total (never [None]). *)
}

type t

val create : name:string -> ?weights:(string * float) list -> mutator list -> t
(** [create ~name ms] builds an engine over [ms] (mutator 0 is the
    total fallback). [weights] overrides base weights by mutator name.
    @raise Invalid_argument on an empty mutator list, a duplicate or
    unknown weight name, or a non-positive weight. *)

val name : t -> string

val mutator_names : t -> string list

val mutate : t -> Nyx_sim.Rng.t -> ctx -> Program.t -> Program.t
(** Pick a mutator (no draw when there is only one) proportionally to
    [base * (0.1 + ewma_credit)], run it, and fall back to mutator 0 on
    [None]. The produced candidate is attributed to the mutator that
    made it for the next {!credit} call. *)

val credit : t -> novel:bool -> unit
(** Coverage news for the last {!mutate} candidate: bumps the producing
    mutator's accept counter and folds [novel] into its EWMA credit
    (alpha = 0.05). Draw-free and clock-free. *)

(** {2 Counters and checkpointing} *)

type stat = {
  s_name : string;
  s_attempts : int;  (** times selected (fallback re-attempts count) *)
  s_rejected : int;  (** times it returned [None] *)
  s_accepts : int;  (** candidates that produced new coverage *)
  s_credit : float;  (** current EWMA coverage credit in [0, 1] *)
}

val stats : t -> stat list
(** In mutator order. *)

val save : t -> bytes
(** The checkpoint section: per-mutator counters and EWMA credit. *)

val load : t -> bytes -> unit
(** Overwrite the counters and credits with a {!save}d section; the
    engine is unchanged when the section is rejected.
    @raise Nyx_sim.Wire.Corrupt on a malformed section.
    @raise Invalid_argument when the mutator names do not match the
    engine's (same names, same order) — e.g. a checkpoint from a
    different engine. *)

(** {2 The byte/havoc engine} *)

val havoc_mutator : mutator
(** The existing structural+byte mutator ({!Mutator.mutate}) wrapped as
    a total engine mutator — the conventional fallback at index 0. *)

val havoc : ?weights:(string * float) list -> unit -> t
(** The default engine: [havoc_mutator] alone. Bit-identical draw
    sequence to the historical direct [Mutator.mutate] call. *)
