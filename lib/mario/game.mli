(** The platformer engine.

    Deterministic fixed-point physics; all mutable game state lives in
    guest memory so whole-VM snapshots capture mid-level positions — the
    property Figure 2 visualizes. Includes the wall-jump glitch: pressing
    jump while airborne, falling, and pushing against a wall resets
    vertical velocity, letting the player climb vertical faces (how 2-1
    becomes solvable).

    Coverage feedback is IJON-style: every frame hits a coverage site
    derived from the player's position bucket, so new screen areas count
    as new coverage for every fuzzer under comparison. *)

type t

type buttons = { right : bool; left : bool; jump : bool; run : bool }

val buttons_of_byte : int -> buttons
(** bit 0 right, bit 1 left, bit 2 jump, bit 3 run. *)

val frames_per_byte : int
(** Each input byte holds its buttons for this many frames (4). *)

val frame_cost_ns : int
(** Simulated cost of emulating one frame. *)

val boot : Nyx_targets.Ctx.t -> Level.t -> t
(** Allocate game state in the guest heap at the spawn position. *)

val base : t -> int
(** Guest address of the game's state block. *)

val attach : Nyx_targets.Ctx.t -> Level.t -> base:int -> t
(** The game whose state block {!boot} allocated at [base] in [ctx]'s
    guest memory. Allocates nothing in the guest and charges nothing. *)

val step : t -> buttons -> unit
(** Advance one frame (no-op once dead or won). *)

val run_input : t -> bytes -> unit
(** Feed one input packet: {!frames_per_byte} frames per byte. *)

val alive : t -> bool
val won : t -> bool
val x_px : t -> int
val y_px : t -> int
val frame : t -> int
val max_x_px : t -> int

exception Level_solved of { frames : int }
(** Raised by {!step} on reaching the flag — the "crash" the fuzzers hunt
    for in the Mario experiment (IJON instruments the win the same way). *)
