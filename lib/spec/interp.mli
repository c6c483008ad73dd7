(** The bytecode interpreter — the auto-generated "custom VM" of §2.2.

    Runs a program against the executor's opcode handlers. Handler-domain
    values (connection flow ids, etc.) are plain integers stored in an
    environment indexed by the program's value numbering, so execution can
    be split at the snapshot opcode: run the prefix, let the engine take an
    incremental snapshot, and later re-run only the suffix against the
    captured environment.

    {2 Sanitizer mode}

    With [NYX_SANITIZE=1] in the environment (or [~sanitize:true]), the
    interpreter asserts at runtime the facts the static verifier
    ({!Nyx_analysis.Verifier}) proves offline: argument arity, value
    indices in bounds, and affine discipline (no use after consume). A
    failure raises {!Violation} — it means a bug in the mutator or engine,
    not a bad fuzz input. Off (the default) the only cost is one branch
    per op, and campaign results are bit-identical to builds without the
    sanitizer. The flag is read once at module load, never per exec. *)

type handlers = {
  exec : Spec.node_ty -> int list -> bytes array -> int list;
      (** [exec node inputs data] performs one interaction and returns the
          handler-domain values for the node's outputs. *)
  snapshot : unit -> unit;
      (** Invoked for the snapshot opcode (the agent's hypercall). *)
}

type env
(** Value environment: handler values produced so far. When the sanitizer
    is armed it also carries the consumed-flags, so the affine state
    survives the prefix/suffix split across {!copy_env}. *)

exception Violation of { op : int; code : string; detail : string }
(** Sanitizer assertion failure at op index [op]. Codes mirror the static
    verifier's: ["bad-arity"], ["dangling-arg"],
    ["affine-use-after-consume"], ["snapshot-carries-payload"]. *)

val sanitize_default : bool
(** Whether [NYX_SANITIZE] armed the sanitizer for this process. *)

val initial_env : ?sanitize:bool -> Program.t -> env
(** Fresh environment; [sanitize] defaults to {!sanitize_default}. *)

val copy_env : env -> env

val blit_env : src:env -> dst:env -> unit
(** Make [dst] equal to [copy_env src], reusing [dst]'s arrays when they
    are large enough: how a session's suffix runs start from the
    snapshot's environment without allocating one per run. *)

val snapshot_op_index : Program.t -> int option
(** Index in [ops] of the snapshot opcode. *)

val run :
  ?sanitize:bool -> ?from:int -> ?until:int -> ?env:env -> Program.t ->
  handlers -> env
(** Execute ops starting at index [from] (default 0), stopping before
    index [until] (default — and clamped to — the program length), in the
    given environment (default fresh). Returns the final environment.
    Exceptions from handlers (crashes, protocol errors) propagate.
    [sanitize] only applies when no [env] is passed — an explicit
    environment keeps the mode it was created with. [until] is how the
    dynamic placement policy's boundary probe single-steps a program,
    hashing the target's protocol state between ops. *)

val run_until_snapshot :
  ?sanitize:bool -> Program.t -> handlers -> (int * env) option
(** Execute the prefix up to and including the snapshot opcode; returns
    the index of the first suffix op and the environment at the snapshot
    point, or [None] when the program has no snapshot opcode (in which
    case nothing is executed). *)
