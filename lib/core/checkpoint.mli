(** Crash-safe campaign checkpoints.

    A checkpoint captures the deterministic state a campaign needs to
    continue exactly where it left off; {!Campaign.resume} rebuilds the
    rest (guest memory, disk, devices) by re-booting the target, which is
    deterministic. The contract, enforced by the qcheck property in
    [test_resilience]: killing a campaign at {e any} checkpoint and
    resuming produces a bit-identical final {!Report.campaign_result}
    (modulo the informational wall-clock fields —
    {!Report.same_deterministic}).

    Files start with the magic ["NYXCKP1"], use flat big-endian int64
    framing throughout, and are written atomically (tmp + rename via
    {!Nyx_resilience.Atomic_io}) so a crash mid-write never corrupts the
    previous checkpoint. *)

type corpus_entry = {
  ce_program : bytes;  (** {!Nyx_spec.Program.serialize} form *)
  ce_exec_ns : int;
  ce_discovered_ns : int;
  ce_state_code : int;
}

type crash = {
  cr_kind : string;
  cr_detail : string;
  cr_found_ns : int;
  cr_found_exec : int;
  cr_input : bytes;
}

type t = {
  c_policy : string;  (** {!Policy.name} form *)
  c_budget_ns : int;
  c_max_execs : int;
  c_seed : int;
  c_asan : bool;
  c_stop_on_solve : bool;
  c_trim : bool;
  c_sample_interval_ns : int;
  c_target : string;
  c_clock_ns : int;
  c_execs : int;
  c_last_sample : int;
  c_solved_ns : int option;
  c_sched_rng : int64;
  c_mut_rng : int64;
  c_policy_state : Policy.state;
  c_corpus : corpus_entry list;  (** oldest first: ids re-assign in order *)
  c_virgin : bytes;  (** cumulative coverage map *)
  c_timeline : (int * int64) list;  (** oldest first; values as float bits *)
  c_crashes : crash list;  (** newest first, as the campaign stores them *)
  c_engine : Nyx_snapshot.Engine.persisted;
  c_dict : bytes list;
  c_max_ops : int;
  c_exec_timeline : (int * int64) list;
      (** execs-keyed coverage timeline, oldest first; values float bits *)
  c_mut_engine : string;  (** {!Engines.name} form *)
  c_mut_weights : (string * int64) list;
      (** per-mutator base-weight overrides; weights as float bits *)
  c_mut_state : Nyx_spec.Mutation_engine.state;
      (** per-mutator counters and EWMA credit, engine order *)
  c_faults : (string * Nyx_resilience.Plan.state) option;
      (** canonical fault spec + plan state, when a plan was armed *)
  c_profile : Nyx_obs.Profile.state option;
  c_peer : Nyx_peer.Peer_driver.state option;
      (** cooperating-peer counters, for [--mode peer] campaigns *)
}

val encode : t -> bytes
val decode : bytes -> t
(** @raise Corrupt on malformed input. *)

exception Corrupt of string

(** {2 Wire framing}

    The primitives NYXCKP1 is written with, shared with the fleet's
    NYXFLT1 files ({!Fleet.checkpointing}). Readers check every length and
    element count against the bytes left, so malformed input raises
    {!Corrupt} and never makes a reader allocate for more elements than
    the input has bytes. *)

val add_int : Buffer.t -> int -> unit
(** One big-endian int64. *)

val add_bytes : Buffer.t -> bytes -> unit
(** Length-prefixed bytes. *)

val add_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** Count-prefixed elements. *)

type cursor

val cursor : magic:string -> bytes -> cursor
(** A reader positioned after [magic]. @raise Corrupt if the input does
    not start with it. *)

val get_int : cursor -> int
val get_bytes : cursor -> bytes
val get_list : (cursor -> 'a) -> cursor -> 'a list

val expect_end : cursor -> unit
(** @raise Corrupt unless the whole input has been read. *)

val save : string -> t -> (unit, string) result
(** Atomic write (tmp + rename). *)

val load : string -> (t, string) result
