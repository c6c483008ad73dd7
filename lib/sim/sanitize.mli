(** The [NYX_SANITIZE] switch, shared by every layer that asserts
    invariants at runtime (the interpreter's verifier facts, netemu's
    restore check). *)

val armed : bool
(** Whether [NYX_SANITIZE] is set to [1], [true], [yes] or [on]. Read
    once at module load, never per exec. *)
