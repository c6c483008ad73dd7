(** Typed mutators over the affine IR: the analysis-backed half of the
    {!Nyx_spec.Mutation_engine} (ISSUE 9; Fuzzilli direction).

    Two mutators ride on the static machinery this library already has:

    - {b splice} cuts the program and a corpus donor at
      {!Dataflow.state_path}-compatible points (equal live edge-type
      bitmasks) and grafts the donor suffix onto the program prefix;
      {!Nyx_spec.Program.repair} rebinds the grafted args against the
      live affine environment.
    - {b generate} synthesizes a fresh suffix (whole program when no
      prefix is frozen) by concretely walking the constructible-opcode
      transitions of {!State_graph}: half the walks are free, half
      steer toward a random reachable abstract state (a state-reaching
      prefix), with data fields drawn from the token dictionary.

    Every candidate is verified offline with {!Verifier.is_clean} before
    it is returned — generate, verify, execute clean programs only. Both
    mutators return [None] (engine falls back to havoc) when no
    candidate survives.

    Both allocate only for what a candidate contains. Splice counts the
    equal-state cut pairs, draws over the count and walks to the drawn
    pair (ordered by program cut, then donor cut); generate keeps its
    environment in int arrays (a value table and live values per edge
    type). Each makes the draws, in the order, of the list-based
    versions they replaced. *)

val generative : Nyx_spec.Spec.t -> bool
(** Whether the generator is armed for [spec]: false exactly when the
    spec is {!Spec_lint} [dynamic-degenerate] (at most one
    constructible non-snapshot node type) — walking a one-node graph
    would only replay the same opcode, so such specs fall back to
    havoc. *)

val splice_mutator : Nyx_spec.Mutation_engine.mutator
(** Name ["splice"], base weight 1.0. *)

val generate_mutator : Nyx_spec.Spec.t -> Nyx_spec.Mutation_engine.mutator
(** Name ["generate"], base weight 0.35 (tuned on the mutation_matrix
    bench: whole-program synthesis pays off as occasional exploration,
    not as the main course). Precomputes the state graph, the
    constructibility fixpoint and each usable node's needs (live values
    per input edge type) for [spec].
    @raise Invalid_argument when [generative spec] is false. *)

val mutators : Nyx_spec.Spec.t -> Nyx_spec.Mutation_engine.mutator list
(** The typed engine's mutator list: [havoc; splice; generate], with
    [generate] omitted on degenerate specs (havoc stays at index 0 as
    the total fallback). *)
