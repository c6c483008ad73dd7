(** The Nyx-Net fuzzing campaign (the main loop of the system).

    Seeds the corpus from the target's canned traffic via the PCAP import
    pipeline, then repeatedly schedules an input, lets the snapshot
    placement policy choose where to snapshot, and runs
    {!Policy.reuse_count} mutated test cases against that snapshot before
    moving on. Coverage novelty grows the corpus; crashes are
    deduplicated by kind. All times are virtual. *)

type config = {
  policy : Policy.kind;
  budget_ns : int;
  max_execs : int;
  seed : int;
  asan : bool;
  stop_on_solve : bool;
  trim : bool;
      (** AFL-style queue-entry trimming: new corpus entries are truncated
          to the shortest prefix with identical coverage, so snapshot
          placement concentrates on the live part of long inputs (decisive
          on long message sequences such as deep Mario levels). Off by
          default. *)
  sample_interval_ns : int;
  engine : Engines.kind;
      (** mutation engine (default [Havoc]). The havoc engine hosts a
          single mutator and therefore makes no selection draw — its
          candidate stream, and every golden result, is byte-identical
          to the pre-engine code. [Typed] adds typestate splicing and
          spec-driven generation with EWMA coverage-credit weighting. *)
  mutator_weights : (string * float) list;
      (** per-mutator base-weight overrides by name (CLI
          [--mutator-weights]); empty means engine defaults.
          Unknown names raise [Invalid_argument] at campaign start. *)
}

val default_config : config
(** 30 virtual seconds, 200k execs max, seed 1, no ASan, havoc engine. *)

(** {2 Crash-safe checkpointing} *)

type checkpoint_cfg
(** Periodic checkpoint policy: every [interval_ns] of virtual time the
    campaign serializes its deterministic state (corpus, cumulative
    coverage, RNG and clock state, fault plan, …) to [path] with an
    atomic tmp-then-rename write. A campaign killed at any point can then
    be continued with {!resume}, producing a final result bit-identical
    to the uninterrupted run ({!Report.same_deterministic}). *)

val checkpointing :
  ?on_write:(int -> unit) -> path:string -> interval_ns:int -> unit ->
  checkpoint_cfg
(** [on_write ordinal] runs after the [ordinal]-th (1-based) checkpoint
    has been durably written — the hook used by the kill-and-resume
    determinism test. @raise Invalid_argument if [interval_ns <= 0]. *)

val run :
  ?seeds:Nyx_spec.Program.t list ->
  ?custom:Op_handlers.custom_handler ->
  ?peer:Nyx_peer.Peer_script.t ->
  ?peer_faults:Nyx_resilience.Plan.spec ->
  ?profile:bool ->
  ?faults:Nyx_resilience.Plan.spec ->
  ?checkpoint:checkpoint_cfg ->
  config ->
  Nyx_targets.Registry.entry ->
  Report.campaign_result
(** [seeds] overrides the registry entry's canned seed programs (they must
    be built against a {!Nyx_spec.Net_spec.create} spec compatible with
    the internal one: use [make_seeds]).

    [peer] switches the campaign into peer mode ([--mode peer] on the
    CLI): instead of delivering program payloads as raw wire bytes, a
    scripted protocol-correct peer interprets each payload as an action
    selector plus an encoder-fault selector (see
    {!Nyx_peer.Peer_script.decode_payload}), speaks the protocol with the
    target, and recovers from desyncs under supervision (bounded backoff,
    session restart, quarantine after repeated failures — partial results,
    never campaign failure). The peer's session state lives in the
    snapshot aux area, so incremental snapshots capture mid-handshake
    peers. Seeds default to the script's honest sessions. The result's
    [peer] block reports action/fault/desync counters.

    [peer_faults] appends peer encoder-fault sites (see
    {!Nyx_peer.Peer_fault.parse_spec}) to the armed fault plan. With every
    rate at zero (or no spec at all) no plan is armed and the campaign's
    draw sequence — hence its result — is byte-identical to a fault-free
    peer run.

    [profile] (default false) attaches a {!Nyx_obs.Profile.t} to the
    executor and fills the result's [phase_profile] with the per-phase
    virtual-time breakdown. Profiling is observational: every other
    result field is bit-identical with it on or off.

    [faults] arms a deterministic fault-injection plan. Only [faults]
    and [peer_faults] arm one: the library reads no environment variable
    for it (the CLI's [fuzz] takes [NYX_FAULTS] as the default of
    [--faults]). The plan's RNG is split from the
    campaign RNG only when a plan is armed, so fault-free runs keep the
    historical draw sequence and golden results stay byte-identical.
    When armed, the result's [resilience] block reports injected /
    recovered / aborted fault counts.

    [checkpoint] enables periodic crash-safe checkpointing (see
    {!checkpointing}). Checkpoint writes are observational: they advance
    no virtual time and draw no randomness, so a checkpointed run's
    result is bit-identical to an uncheckpointed one. *)

val resume :
  ?custom:Op_handlers.custom_handler ->
  ?profile:bool ->
  ?checkpoint:checkpoint_cfg ->
  Checkpoint.t ->
  Nyx_targets.Registry.entry ->
  Report.campaign_result
(** Continue a campaign from a checkpoint (typically
    {!Checkpoint.load}ed from disk after a crash or kill). The target is
    re-booted — deterministic given the checkpointed seed — and every
    RNG, the virtual clock, the corpus, cumulative coverage, crash log
    and snapshot-engine state are restored, after which the main loop
    continues exactly as the original run would have: the final result
    satisfies {!Report.same_deterministic} against the uninterrupted
    run's. [custom] must be the same handler the original run used.
    Peer mode is inferred from the checkpoint: when it carries peer
    counters the target's script is re-attached and the counters
    restored, so resumers never pass a peer flag.

    @raise Invalid_argument if the checkpoint's target does not match
    [entry], the checkpoint stores an unknown policy/fault spec, or a
    component section is rejected (the message names the section:
    policy, snapshot-engine, mutation, profile or peer). *)

(** {2 Stepped instances (fleet corpus sync)}

    A shared-corpus fleet ({!Fleet.run} with sync epochs) drives
    campaigns through this resumable API instead of {!run}: [start] boots
    the campaign and executes the seed programs, each [step] advances the
    main loop until the virtual clock reaches the given barrier (or the
    budget/exec cap), and between steps the fleet drains coverage-novel
    {!export}s and feeds peer exports back via {!import}. [run] is
    exactly [start] + one step to infinity + [finalize], so the unstepped
    path is byte-identical to the historical one.

    Steps are deterministic: an instance paused at a barrier is at the
    main-loop top (no open snapshot session), so {!checkpoint_now} is
    valid there and stepping never alters the executed schedule except by
    where it pauses. *)

type inst
(** A live, pausable campaign. Owned by one domain at a time; the fleet
    hands an instance to at most one worker per epoch. *)

type export = {
  ex_program : Nyx_spec.Program.t;
      (** the stored (post-trim, snapshot-stripped) corpus entry *)
  ex_cov : Nyx_targets.Coverage.checkpoint;
      (** the discovering execution's coverage map, for O(touched)
          novelty judging without re-execution *)
  ex_cells : int;  (** saved hit cells — the sync merge cost driver *)
  ex_exec_ns : int;
  ex_state_code : int;
}
(** A program that grew the exporting instance's corpus, with enough
    coverage evidence for peers to judge it. *)

val start :
  ?seeds:Nyx_spec.Program.t list ->
  ?custom:Op_handlers.custom_handler ->
  ?peer:Nyx_peer.Peer_script.t ->
  ?peer_faults:Nyx_resilience.Plan.spec ->
  ?profile:bool ->
  ?faults:Nyx_resilience.Plan.spec ->
  ?checkpoint:checkpoint_cfg ->
  ?collect_exports:bool ->
  config ->
  Nyx_targets.Registry.entry ->
  inst
(** Boot a campaign and execute its seed programs (everything {!run}
    does before entering the main loop). [collect_exports] (default
    false) arms export capture: every coverage-novel corpus addition is
    also queued for {!drain_exports}. *)

val step : inst -> until_ns:int -> unit
(** Advance the main loop until the virtual clock reaches [until_ns] or
    the campaign is {!finished}. [step ~until_ns:max_int] runs to the
    budget — the unstepped path. *)

val finished : inst -> bool
(** The budget or exec cap is exhausted (or stop-on-solve fired):
    further steps are no-ops. *)

val clock_ns : inst -> int
(** The instance's virtual clock. *)

val execs : inst -> int

val finalize : inst -> Report.campaign_result
(** Freeze the result (identical to what {!run} would have returned for
    the same step schedule). Call once, after the last step. The
    result's [wall_s] is the wall time spent inside this instance's own
    calls ([start] or {!resume_inst}, [step], [import], [sync_charge],
    [finalize]), not the time elapsed since [start]: between steps, a
    fleet is running the peers. *)

val drain_exports : inst -> export list
(** Remove and return the exports queued since the last drain, in
    discovery order. *)

val import : inst -> export -> bool
(** Judge a peer export against this instance's virgin map (O(saved
    cells), no re-execution) and adopt it into the corpus if novel here.
    Charges deterministic virtual time under the [Corpus_sync] profile
    phase. Returns whether it was adopted. *)

val sync_charge : inst -> programs:int -> cells:int -> unit
(** Charge the exporting side's share of a sync barrier: judging
    [programs] candidates totalling [cells] saved hit cells against the
    fleet map. *)

val checkpoint_now : inst -> Checkpoint.t
(** Capture a checkpoint at a sync barrier (the instance is paused at
    the main-loop top, where captures are valid). *)

val resume_inst :
  ?custom:Op_handlers.custom_handler ->
  ?profile:bool ->
  ?checkpoint:checkpoint_cfg ->
  ?collect_exports:bool ->
  Checkpoint.t ->
  Nyx_targets.Registry.entry ->
  inst
(** {!resume}, stopped before the main loop: the fleet's kill+resume
    path rebuilds each instance with this and continues stepping.
    @raise Invalid_argument as {!resume}. *)

val make_seeds :
  Nyx_targets.Registry.entry -> Nyx_spec.Net_spec.t -> Nyx_spec.Program.t list

val net_spec : unit -> Nyx_spec.Net_spec.t
(** The spec campaigns use (raw packets, Listing 1-style). *)

val median_result : Report.campaign_result list -> Report.campaign_result
(** The run with median final coverage (ties broken by earlier time) —
    how multi-run cells of Table 2 are aggregated. *)
