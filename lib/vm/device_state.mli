(** Emulated-device state.

    QEMU devices (interrupt controller, timers, virtio queues...) carry
    state outside guest memory that a whole-VM snapshot must capture. We
    model it as one opaque blob. Two reset paths exist, matching §5.3's
    "faster emulated device resets": Nyx's custom fast reset and QEMU's
    generic serialize/deserialize (used by the Agamotto baseline). *)

type t

val create : size:int -> t
val size : t -> int

val write : t -> int -> bytes -> unit
(** Guest/device activity mutating the state. @raise Invalid_argument on
    out-of-range. *)

val read : t -> int -> int -> bytes

val capture : t -> bytes
(** An image of the full blob (snapshot create side; cost charged by
    caller). Images are read-only: while nothing has written the blob
    since it was last restored from or captured to an image, that image
    is returned again instead of a fresh copy, and restoring it copies
    nothing. *)

val restore_fast : t -> Nyx_sim.Clock.t -> bytes -> unit
(** Nyx's custom device reset: charges {!Nyx_sim.Cost.device_fast_reset}. *)

val restore_serialized : t -> Nyx_sim.Clock.t -> bytes -> unit
(** QEMU's generic route: charges {!Nyx_sim.Cost.device_serialize_reset}. *)
