(** The Nyx-Net executor: one fuzzing VM instance.

    Owns a simulated VM, the emulated network stack, a booted target and
    the snapshot engine. Test cases are bytecode programs executed through
    the interpreter; every injected packet is pumped through the target's
    event loop, and the VM is reset to the active snapshot between
    executions.

    The session API implements §3.4: [start_session] executes the prefix
    up to the snapshot opcode and takes the incremental snapshot;
    [run_suffix] then executes mutated suffixes against it (restoring the
    incremental snapshot and replaying the prefix's coverage and
    interpreter environment each time); [end_session] discards the
    snapshot and returns to the root. *)

type t

val create :
  ?asan:bool ->
  ?layout_cookie:int ->
  ?custom:Op_handlers.custom_handler ->
  ?peer:Nyx_peer.Peer_script.t ->
  ?profile:Nyx_obs.Profile.t ->
  net_spec:Nyx_spec.Net_spec.t ->
  Nyx_targets.Target.t ->
  t
(** Boots the target (charging its startup cost), pumps it to its accept
    loop, and takes the root snapshot. The VM is a
    {!Nyx_vm.Vm.fuzz_config} one behind the emulated network, which keeps
    packet boundaries; [net_spec] is ignored. [profile], when given, receives a
    per-phase virtual-time attribution of every execution this instance
    runs (reset / prefix-replay / suffix-exec / snapshot-create);
    accumulation is observational only and changes no result.

    [peer] switches the instance into peer mode: a {!Nyx_peer.Peer_driver}
    built from the script claims every connect/packet/close opcode (payloads
    select peer actions and encoder-fault arms instead of raw bytes), and
    its session state is registered as aux snapshot state before the root
    snapshot — incremental snapshots capture the peer mid-handshake.
    [peer] takes precedence over [custom]. *)

val clock : t -> Nyx_sim.Clock.t

val profile : t -> Nyx_obs.Profile.t option
(** The profile passed to {!create}, if any — campaign layers attribute
    their own phases (cov-merge, trim) to the same accumulator. *)

val coverage : t -> Nyx_targets.Coverage.t
(** The last execution's map. *)

val state_code : t -> int
val snapshot_stats : t -> Nyx_snapshot.Engine.stats
val target_name : t -> string

val root_stored_bytes : t -> int
(** Bytes held by the immutable root image — shareable across instances
    (§5.3 scalability). *)

val mirror_bytes : t -> int
(** Bytes held by this instance's private incremental mirror. *)

(** {2 Fault injection (ISSUE: nyx_resilience)} *)

val arm_faults : t -> Nyx_resilience.Plan.t -> unit
(** Arm a deterministic fault plan on this instance's VM. The snapshot
    engine then consults it when incremental snapshots are taken and
    restored; the executor consults its [Guest_wedge] site before each
    execution. With no plan armed every consultation is one branch. *)

val faults : t -> Nyx_resilience.Plan.t option

val peer_driver : t -> Nyx_peer.Peer_driver.t option
(** The cooperating-peer driver, when the instance runs in peer mode. *)

(** {2 Campaign checkpointing} *)

val save_engine : t -> bytes
val load_engine : t -> bytes -> unit
(** The snapshot engine's checkpoint section ({!Nyx_snapshot.Engine.save},
    {!Nyx_snapshot.Engine.load}). *)

val status_of_run : (unit -> unit) -> Report.status
(** Run a thunk, mapping the crash exceptions every executor must handle
    (target crashes, ASan violations, guest faults, protocol desyncs)
    to a {!Report.status}. Shared with the baseline executors. *)

val run_full : t -> Nyx_spec.Program.t -> Report.exec_result
(** Reset to the root snapshot and execute the whole program (snapshot
    opcodes, if any, take the incremental snapshot but the engine is
    returned to root mode afterwards — use sessions to exploit them). *)

type session

val start_session : t -> Nyx_spec.Program.t -> (session, Report.exec_result) result
(** The program must contain a snapshot opcode. [Error r] when the prefix
    itself crashed or the program has no snapshot opcode. The prefix cost
    is charged once, here. *)

val suffix_start : session -> int
(** Index of the first op after the snapshot opcode — the [frozen] prefix
    length for the mutator. *)

val run_suffix : t -> session -> Nyx_spec.Program.t -> Report.exec_result
(** Execute a program sharing the session's frozen prefix: only ops from
    {!suffix_start} run, against the incremental snapshot.

    When a fault plan is armed and the incremental snapshot turns out to
    be faulted (corrupted at creation, lossy dirty log, or a failed
    restore), the executor degrades gracefully: the snapshot is discarded
    and transparently rebuilt from the root by replaying the program's
    frozen prefix — the paper's recreate-on-demand path (§3.4) — with the
    recovery's full cost charged to virtual time and the faults counted
    as recovered in the plan. *)

val end_session : t -> session -> unit

(** {2 Protocol-state probing (dynamic snapshot placement)} *)

val state_hash : t -> int
(** {!Nyx_targets.Target.state_hash} of the instance's current state —
    fuzzy aux-state signature folded with the target's state-code
    annotation. Charges virtual time. *)

val state_boundaries : ?feasible:int list -> t -> Nyx_spec.Program.t -> int list
(** Single-step the program (snapshots stripped) from the root snapshot,
    hashing the protocol state after every packet. Returns the ascending
    interior packet indices [1 <= i <= packets-1] where the hash changed —
    the state-machine boundaries the dynamic placement policy snaps
    candidate snapshot points to. A crash mid-probe truncates the list.
    Leaves the instance reset to the root. Costs (replay + hashing) are
    charged to the virtual clock.

    [feasible] is the static boundary prior
    ({!Nyx_analysis.Dataflow.feasible_boundaries}): only those indices
    are hashed — sound because a statically inert op cannot move the
    hash — cutting the probe's hashing cost without changing the result.
    Under [NYX_SANITIZE] the skipped indices are shadow-hashed off the
    virtual clock as a conformance check; a hash move at one raises
    {!Nyx_spec.Interp.Violation} with code [state-boundary-escape]. *)

val last_probe_hashed : t -> int
(** State hashes taken by the most recent {!state_boundaries} probe. *)

val last_probe_skipped : t -> int
(** Indices the static prior let the most recent probe skip. *)

val last_snapshot_pages : t -> int
(** Pages copied by this instance's most recent incremental snapshot
    create — the dirty-set size the dynamic policy's cost model feeds on.
    Read it right after the session start it describes. *)
