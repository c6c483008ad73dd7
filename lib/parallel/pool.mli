(** A bounded domain pool (OCaml 5 Domains + Mutex/Condition, no deps).

    {2 Domain-safety contract}

    The pool provides scheduling, ordered result collection and exception
    capture — {e nothing else}. Callers must uphold:

    - Tasks share no mutable state with each other or with the caller
      while the pool runs them. The campaign layers satisfy this by
      construction: every instance owns its virtual clock, VM, RNG and
      corpus. Modules that must share state at top level document it with
      the repo's ["domain-safe"] comment convention (enforced by
      [make lint] via {!Nyx_analysis.Source_lint}).
    - {!map}/{!map_list} results are in submission order and each task is
      a pure function of its input, so output is byte-identical whatever
      the domain count. [domains = 1] (or [NYX_DOMAINS=1]) bypasses the
      pool and runs on the calling domain — exactly the pre-parallel
      sequential path.
    - Internally, each result slot is written by exactly one task; the
      [wait] mutex publishes the writes to the caller (OCaml memory
      model), so no atomics are needed. *)

exception Task_error of { index : int; exn : exn }
(** Raised by {!map}/{!map_list} when a task raised: the lowest failing
    submission index, carrying the original exception. *)

exception Cancelled
(** The payload recorded for tasks skipped after an earlier task failed
    (see the error contract under {!map}). Never escapes {!map} itself —
    the [Task_error] it raises always carries a real failure. *)

val max_domains : int
(** Hard cap (48), well under the runtime's ~128-domain limit so nested
    users (a fleet inside a bench) cannot exhaust the budget. *)

val recommended : unit -> int
(** [min max_domains (Domain.recommended_domain_count ())]. *)

val default_domains : unit -> int
(** Worker count from [NYX_DOMAINS] (clamped to [max_domains]; unset or
    invalid falls back to {!recommended}; [1] means sequential). *)

val resolve : int option -> int
(** The worker count a pool asked for [?domains] runs: [Some n] clamped
    to [\[1, max_domains\]], [None] is {!default_domains}. *)

(** {1 Explicit pools} *)

type t

val create : ?domains:int -> unit -> t
(** Spawn a pool of [domains] workers (default {!default_domains}). *)

val size : t -> int

val submit : t -> (unit -> unit) -> unit
(** Enqueue a job. Jobs must capture their own exceptions.
    @raise Invalid_argument after {!shutdown}. *)

val submit_all : t -> (unit -> unit) list -> unit
(** Enqueue a whole batch under one lock acquisition and one condition
    broadcast — one wake-up round for an epoch's worth of work instead of
    one signal per job. Same contract as {!submit} otherwise. *)

val wait : t -> unit
(** Block until every submitted task has finished. *)

val shutdown : t -> unit
(** Drain the queue, then join every worker. Idempotent. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown]. *)

(** {1 Ordered maps} *)

val map : ?domains:int -> ?batch:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel map with results in input order.

    [batch] (default 1) chunks the input into contiguous runs of that
    many tasks per pool job, amortizing the Mutex/Condition wake-up per
    job over the whole chunk; results and the error contract are
    identical at any batch size (values < 1 behave as 1).

    Error contract: when a task raises, tasks at higher indices that have
    not started yet are cancelled — they are skipped, not run — and
    [Task_error] is raised for the lowest {e real} failing index (the
    index a sequential run would have failed at first; cancellations are
    never reported). Tasks already running on other domains complete, and
    their results are discarded. A fleet that must survive individual
    instance failures should catch inside its tasks instead — see
    [Fleet.run]'s supervisor. *)

val map_list : ?domains:int -> ?batch:int -> ('a -> 'b) -> 'a list -> 'b list

val map_pool : t -> ?batch:int -> ('a -> 'b) -> 'a array -> 'b array
(** {!map} on a caller-owned pool: repeated fan-outs (a fleet's sync
    epochs) reuse the worker domains instead of spawning a fresh set per
    round. The caller must be the pool's only submitter for the duration
    (completion is detected via the pool-wide {!wait}). A one-worker pool
    (or a 0/1-task input) runs sequentially on the calling domain,
    preserving the [NYX_DOMAINS=1] bypass contract. *)
