(** The cooperating-peer executor driver.

    In [--mode peer] the executor routes every [connect]/[packet]/[close]
    opcode here instead of the raw-network dispatch: the program's
    payloads select {!Peer_script} actions (and optionally an encoder
    fault site), the driver encodes them honestly, applies any fired
    {!Peer_fault} and converses with the booted target over the emulated
    network.

    Session state (stage, flow, adoption cursor, desync streak,
    quarantine flag) lives in an {!Nyx_snapshot.Aux_state} handler, so it
    is captured by the root and incremental snapshots exactly like kernel
    socket state: an incremental snapshot taken mid-handshake resumes the
    peer mid-handshake, and every per-execution reset restores the peer
    alongside the target.

    Supervised recovery: when the conversation desynchronizes (an
    expectation fails — usually because an armed encoder fault broke the
    dialogue), the driver charges a capped exponential backoff to virtual
    time, restarts the session, and after [p_quarantine_after]
    consecutive desyncs quarantines it (the peer goes silent and the
    execution completes with partial results). A peer fault therefore
    {e never} aborts a campaign; each fired fault is recorded as
    recovered the moment it is applied. Crashes surfaced by the target
    while pumping propagate untouched — they are the findings. *)

type t

val create :
  ?profile:Nyx_obs.Profile.t ->
  clock:Nyx_sim.Clock.t ->
  net:Nyx_netemu.Net.t ->
  runtime:Nyx_targets.Target.runtime ->
  target:Nyx_targets.Target.t ->
  Peer_script.t ->
  t

val register_aux : t -> Nyx_snapshot.Aux_state.t -> unit
(** Must run before the root snapshot is taken (the engine restores only
    handler sets identical to the capture's). *)

val handler :
  t ->
  send:(bytes -> unit) ->
  Nyx_spec.Spec.node_ty ->
  int list ->
  bytes array ->
  int list option
(** The executor's custom opcode handler: [Some] for connect / packet /
    close, [None] otherwise. *)

val arm : t -> Nyx_resilience.Plan.t -> unit
(** Share the campaign's fault plan; peer sites fire through it. *)

val script : t -> Peer_script.t

(** {2 Cumulative statistics and checkpointing}

    The counters below accumulate across executions (they are {e not}
    snapshot state) and are the peer driver's section of a campaign
    checkpoint. *)

val actions : t -> int
(** Peer actions executed. *)

val desyncs : t -> int
val restarts : t -> int
val quarantines : t -> int

val backoff_ns : t -> int
(** Virtual time spent backing off. *)

val save : t -> bytes
(** The counters as a checkpoint section. *)

val load : t -> bytes -> unit
(** Overwrite the counters with a {!save}d section (unchanged when it is
    rejected). @raise Nyx_sim.Wire.Corrupt on a malformed section. *)

val fired_by_site : t -> (string * int) list
(** Site name to fired count, peer sites order. *)
