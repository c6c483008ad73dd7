(** Deterministic fault-injection plans.

    A plan is seeded from the campaign RNG (a {!Nyx_sim.Rng.split} of it),
    so the whole fault schedule is a pure function of the campaign seed
    and the spec: same seed, same spec — bit-identical faults, recoveries
    and final results. Each instrumented point consults {!fire} with the
    current virtual time; a site only draws from the plan RNG when its
    rate is positive, and never while a recovery is in progress
    ({!suppressed}), so recovery work cannot inject nested faults.

    Specs are comma-separated [site:rate] pairs, e.g.
    ["snap-corrupt:0.05,restore-fail:0.02,wedge:0.01"]; the pseudo-site
    [all] sets every rate at once. *)

type spec = (Fault.site * float) list

val parse_spec : string -> (spec, string) result
(** Rates must be floats in [0,1]; unknown sites and malformed items are
    errors. Later items override earlier ones for the same site. *)

val parse_sites :
  what:string -> names:(string * Fault.site) list -> string -> (spec, string) result
(** The grammar behind {!parse_spec}, over the sites [names] lists:
    each is accepted under its listed name or its {!Fault.site_name},
    and [all] sets every one of them. Errors call a spec a [what] spec
    and list the [names]. *)

val spec_to_string : spec -> string
(** Canonical spec string (site order, full float precision) —
    [parse_spec] of it round-trips. Stored in checkpoints. *)

type t

val create : spec -> Nyx_sim.Rng.t -> t
(** The plan owns the given generator (conventionally a split of the
    campaign RNG). *)

val spec_string : t -> string

val fire : t -> Fault.site -> vns:int -> Fault.t option
(** Consult the plan at an instrumented point: [Some fault] when the site
    fires. Counts the injection. Returns [None] without drawing when the
    site's rate is zero or a recovery is in progress. *)

val suppressed : t -> (unit -> 'a) -> 'a
(** Run a recovery action with injection disabled (re-entrant). *)

val record_recovered : t -> Fault.t -> unit
(** Count a fault as recovered: its damage was discarded and rebuilt
    (root-snapshot rebuild, watchdog reset, sink disable). *)

type counts = { injected : int; recovered : int }

val totals : t -> counts
(** Aborted faults are the difference: [injected - recovered] is whatever
    was still latent and unretired when the campaign ended. *)

val by_site : t -> (Fault.site * counts) list

(** {2 Checkpoint support} *)

type state = {
  st_rng : int64;
  st_seq : int;
  st_injected : int array;
  st_recovered : int array;
}

val state : t -> state
val restore_state : t -> state -> unit
(** @raise Invalid_argument if the counter arrays do not match
    {!Fault.num_sites}. *)

val add_state : Buffer.t -> state -> unit
val get_state : Nyx_sim.Wire.cursor -> state
(** The state's checkpoint encoding. @raise Nyx_sim.Wire.Corrupt on
    malformed input. *)
