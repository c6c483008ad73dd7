(** The root snapshot.

    Created once after target startup (expensive: copies every materialized
    page of guest memory, §4.2). Restores are cheap: only the pages
    dirtied since the snapshot are overwritten, enumerated through Nyx's
    dirty stack rather than a bitmap scan. Device state uses Nyx's fast
    custom reset; disk overlays are discarded. *)

type t

val create : Nyx_vm.Vm.t -> Aux_state.t -> t
(** Capture the current VM state and clear the dirty log so subsequent
    execution is tracked against this snapshot. *)

val restore : ?disk:bool -> Nyx_vm.Vm.t -> Aux_state.t -> t -> int
(** Reset the VM to the snapshot. Returns the number of pages restored.
    Cost: one {!Nyx_sim.Cost.page_copy} per dirty page plus the dirty-stack
    walk and the fast device reset. [disk:false] leaves the disk overlays
    in place — used to model restart-based fuzzers whose cleanup scripts
    miss spool files (a whole-VM snapshot never has this problem). *)

val page : t -> int -> bytes option
(** Content of a page in the snapshot image ([None] = zero page). The
    returned bytes are shared with the snapshot; callers must not
    mutate them. *)

val revert_page : t -> Nyx_vm.Memory.t -> int -> unit
(** [revert_page t mem pfn] puts page [pfn] of [mem] back to its content
    in the snapshot image (dropping it when that is the zero page),
    without marking it dirty and without charging. *)

val pages_stored : t -> int
(** Materialized pages held by the snapshot (for memory accounting). *)

val stored_bytes : t -> int
