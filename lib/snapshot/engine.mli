(** The Nyx-Net snapshot engine: one root snapshot plus at most one
    incremental snapshot, recreated on demand (§3.4, §4.2).

    The incremental snapshot is backed by a persistent {e mirror}: a table
    of page copies that, together with copy-on-write references to the root
    image, looks like a complete second snapshot of physical memory. Taking
    an incremental snapshot costs roughly one restore: stale mirror entries
    are overwritten with root content, then the pages dirtied since the
    root snapshot are copied in. Entries accumulate (worst case one full
    extra image), so the mirror is re-mirrored to a clean state every
    [remirror_interval] creations (2,000 in the paper). *)

type t

type stats = {
  root_restores : int;
  incremental_creates : int;
  incremental_restores : int;
  pages_restored : int;
  remirrors : int;
}

val create :
  ?remirror_interval:int -> Nyx_vm.Vm.t -> Aux_state.t -> t
(** Take the root snapshot of the VM's current state (expensive: copies
    every materialized page). [remirror_interval] defaults to 2000. *)

val vm : t -> Nyx_vm.Vm.t

val aux : t -> Aux_state.t
(** The auxiliary-state registry the engine captures alongside memory —
    also the input of the fuzzy protocol-state hash. *)

val has_incremental : t -> bool

val last_create_pages : t -> int
(** Pages copied by the most recent {!take_incremental} (0 before the
    first) — the measured dirty-set size behind the dynamic placement
    policy's cost model. Advisory: read it right after the create it
    describes; it is not checkpointed. *)

val take_incremental : t -> unit
(** Snapshot the current VM state as the secondary snapshot. The engine
    must be in root mode.
    @raise Invalid_argument if an incremental snapshot is already active. *)

val restore : t -> unit
(** Reset the VM to the active snapshot: the incremental one when present,
    the root otherwise. This is the per-test-case reset.
    @raise Nyx_resilience.Fault.Injected
      when the VM has a fault plan armed and the active incremental
      snapshot carries a latent fault (corrupted at creation, lossy dirty
      log, or a restore failure injected now). The engine state is left
      untouched; recover by calling {!restore_root}, which discards the
      faulted incremental and rebuilds from the root — the paper's
      recreate-on-demand path (§3.4). *)

val restore_root : t -> unit
(** Discard the incremental snapshot (if any) and reset to the root —
    what happens when the fuzzer schedules the next input. Retires any
    pending injected faults as recovered. *)

val pending : t -> Nyx_resilience.Fault.t list
(** Latent injected faults on the active incremental snapshot (empty when
    no fault plan is armed). *)

val stats : t -> stats

val mirror_pages : t -> int
(** Pages currently held by the incremental mirror (accumulation metric
    behind the 2,000-create re-mirror policy). *)

val root_stored_bytes : t -> int
(** Bytes held by the (shareable, immutable) root image — the quantity
    behind the §5.3 scalability claim that 80 instances need ~2× the
    memory of one. *)

(** {2 Checkpoint section}

    An engine's observable state between executions reduces to the mirror
    key set, the counters, and the dirty-stack order; page contents are
    always overwritten before they are next read. *)

val save : t -> bytes
(** @raise Invalid_argument if an incremental snapshot is active. *)

val load : t -> bytes -> unit
(** Re-establish a {!save}d state on a freshly booted engine for the same
    target; the engine is unchanged when the section is rejected.
    Cost-free: the caller restores the virtual clock separately.
    @raise Nyx_sim.Wire.Corrupt on a malformed section.
    @raise Invalid_argument if an incremental snapshot is active or the
    section names a page outside guest memory. *)
