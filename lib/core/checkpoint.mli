(** Crash-safe campaign checkpoints.

    A checkpoint captures the deterministic state a campaign needs to
    continue exactly where it left off; {!Campaign.resume} rebuilds the
    rest (guest memory, disk, devices) by re-booting the target, which is
    deterministic. The contract, enforced by the qcheck property in
    [test_resilience]: killing a campaign at {e any} checkpoint and
    resuming produces a bit-identical final {!Report.campaign_result}
    (modulo the informational wall-clock fields —
    {!Report.same_deterministic}).

    The campaign's own state is typed below. Each component's state is a
    section written and read by its owner ({!Policy.save},
    {!Nyx_snapshot.Engine.save}, {!Nyx_spec.Mutation_engine.save},
    {!Nyx_obs.Profile.save}, {!Nyx_peer.Peer_driver.save}) and stored
    here as opaque bytes.

    Files start with the magic ["NYXCKP2"], use {!Nyx_sim.Wire}'s checked
    big-endian framing throughout (sections last, in a fixed order, each
    length-prefixed), and are written atomically (tmp + rename via
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
  c_mut_engine : string;  (** {!Engines.name} form *)
  c_mut_weights : (string * int64) list;
      (** per-mutator base-weight overrides; weights as float bits *)
  c_clock_ns : int;
  c_execs : int;
  c_last_sample : int;
  c_solved_ns : int option;
  c_sched_rng : int64;
  c_mut_rng : int64;
  c_corpus : corpus_entry list;  (** oldest first: ids re-assign in order *)
  c_virgin : bytes;  (** cumulative coverage map *)
  c_timeline : (int * int64) list;  (** oldest first; values as float bits *)
  c_exec_timeline : (int * int64) list;
      (** execs-keyed coverage timeline, oldest first; values float bits *)
  c_crashes : crash list;  (** newest first, as the campaign stores them *)
  c_dict : bytes list;
  c_max_ops : int;
  c_faults : (string * Nyx_resilience.Plan.state) option;
      (** canonical fault spec + plan state, when a plan was armed *)
  c_policy_state : bytes;  (** {!Policy.save} section *)
  c_engine : bytes;  (** {!Nyx_snapshot.Engine.save} section *)
  c_mut_state : bytes;  (** {!Nyx_spec.Mutation_engine.save} section *)
  c_profile : bytes option;  (** {!Nyx_obs.Profile.save} section, when profiled *)
  c_peer : bytes option;
      (** {!Nyx_peer.Peer_driver.save} section, for [--mode peer] campaigns *)
}

val encode : t -> bytes

val decode : bytes -> t
(** @raise Nyx_sim.Wire.Corrupt on malformed input, naming the version
    when the input is another version of the format. *)

val save : string -> t -> (unit, string) result
(** Atomic write (tmp + rename). *)

val load : string -> (t, string) result
