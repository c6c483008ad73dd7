(** Auxiliary snapshot state.

    A whole-VM snapshot captures more than guest RAM: kernel socket state,
    the agent's bookkeeping, etc. Components holding such state (notably
    the emulated network stack) register a handler here; the snapshot
    engines capture and restore them alongside memory and devices.

    The handler contract: [save ()] returns the state's image and a
    closure that reinstates exactly the state the image describes.
    - The image is what a capture is charged for
      ({!Nyx_sim.Cost.aux_state_per_byte} per byte), sized by
      {!size_bytes} and hashed by {!fuzzy_hash}; restores are charged by
      its length too. Its bytes must be a pure function of the state.
    - The closure may run any number of times, each time after arbitrary
      mutation of the live state. It must not decode the image (restores
      are the hot path; captures are rare), and the state it installs
      must share nothing mutable with the live state or with the other
      restores of the same capture.
    - A capture restores the components of the registry that took it. *)

type handler = {
  name : string;
  save : unit -> bytes * (unit -> unit);
      (** the state's image, and the closure that reinstates it *)
}

type t

val create : unit -> t

val register : t -> handler -> unit
(** Handlers are captured/restored in registration order. *)

val register_hash_view : t -> name:string -> (unit -> bytes) -> unit
(** Attach a normalized byte view to the handler named [name], used by
    {!hash_capture} in place of [save]. Lets a component exclude pure
    telemetry (e.g. a syscall counter) from the protocol-state signature
    while snapshots keep capturing the exact state. Re-registering under
    the same name replaces the previous view. *)

type capture

val capture : t -> Nyx_sim.Clock.t -> capture
(** Snapshot all registered state, charging per byte. *)

val hash_capture : t -> Nyx_sim.Clock.t -> capture
(** Like {!capture}, but handlers with a registered hash view are read
    through it. Input to {!fuzzy_hash} only — never {!restore}. Charges
    per byte of the viewed image. *)

val restore : t -> Nyx_sim.Clock.t -> capture -> unit
(** Restore a previous capture: run each handler's reinstate closure,
    charging per byte of its image.
    @raise Invalid_argument if the handler set changed since capture, or
    on a {!hash_capture}. *)

val size_bytes : capture -> int

val fuzzy_hash : capture -> int
(** StateAFL-style fuzzy protocol-state signature of a capture: each
    handler's bytes are folded in 64-byte chunks whose contribution is
    quantized (non-zero population and byte-sum buckets), so small
    payload-level differences usually hash identically while structural
    state changes move the hash. Deterministic and non-negative; two
    captures of byte-identical state always agree. *)
