(** Result types shared by all fuzzers under evaluation. *)

type status =
  | Pass
  | Crash of { kind : string; detail : string }
  | Hang

type exec_result = {
  status : status;
  exec_ns : int;  (** virtual time spent on this execution, reset included *)
  state_code : int;  (** protocol state annotation after the run *)
}

type crash_report = {
  kind : string;
  detail : string;
  found_ns : int;  (** virtual campaign time of first occurrence *)
  found_exec : int;
  input : bytes;  (** serialized reproducer program *)
}

type resilience = {
  faults_injected : int;  (** faults the armed plan fired *)
  faults_recovered : int;  (** faults survived via degradation/recovery *)
  faults_aborted : int;  (** [injected - recovered]: faults that ended the run *)
  restarts : int;  (** fleet-supervisor restarts of this instance *)
  quarantined : bool;  (** instance gave up after exhausting its retry budget *)
  backoff_ns : int;  (** virtual backoff the supervisor charged before retries *)
}

type peer_stats = {
  peer_actions : int;  (** scripted peer actions executed *)
  peer_fired : (string * int) list;
      (** encoder faults fired per peer site, {!Nyx_resilience.Fault.peer_sites}
          order *)
  peer_desyncs : int;  (** conversations that fell out of sync *)
  peer_restarts : int;  (** supervised session restarts after a desync *)
  peer_quarantines : int;
      (** sessions quarantined after repeated desyncs (execution finished
          with partial results) *)
  peer_backoff_ns : int;  (** virtual backoff charged before restarts *)
}

type placement_stats = {
  probes : int;  (** state-boundary probes run (one per long-enough entry) *)
  probe_hashes : int;  (** state hashes the probes took *)
  probe_hashes_skipped : int;
      (** hashes the static boundary prior let the probes skip *)
  moves : int;  (** snapshot relocations after the initial placement *)
  boundary_count : int;  (** protocol-state boundaries the probes found *)
  placements : (int * int) list;
      (** final [(input id, snapshot index)] per placed entry, sorted by
          input id; index 0 means the entry settled on the root *)
}

type mutator_stat = {
  mut_name : string;  (** mutator name within its engine (e.g. ["splice"]) *)
  mut_attempts : int;  (** times the engine selected this mutator *)
  mut_rejected : int;
      (** attempts whose candidate failed offline verification (the
          engine fell back to the first mutator for those draws) *)
  mut_accepts : int;  (** candidates that survived triage into the corpus *)
  mut_credit : float;
      (** EWMA coverage credit in [0,1]: the recent fraction of this
          mutator's candidates that produced coverage news *)
}

type mutation_stats = {
  engine : string;  (** engine name, ["havoc"] or ["typed"] *)
  mutators : mutator_stat list;  (** fixed engine declaration order *)
}

type campaign_result = {
  fuzzer : string;
  target : string;
  run_seed : int;
  timeline : Nyx_sim.Stats.Timeline.t;  (** cumulative branch coverage over time *)
  exec_timeline : Nyx_sim.Stats.Timeline.t;
      (** cumulative branch coverage keyed by executions instead of
          virtual time (recorded at every coverage event), for
          execs-to-frontier comparisons between mutation engines *)
  final_edges : int;
  execs : int;
  virtual_ns : int;
  execs_per_sec : float;
  crashes : crash_report list;  (** deduplicated by kind *)
  corpus_size : int;
  solved_ns : int option;  (** Mario: virtual time of the first solve *)
  snapshot_stats : Nyx_snapshot.Engine.stats option;
      (** snapshot engine counters (Nyx-Net campaigns only) *)
  wall_s : float;
      (** real wall-clock time spent in this campaign's own work: its
          boot, main-loop steps, corpus-sync calls and finalize. For a
          fleet instance that excludes the time the fleet spent on its
          peers between steps. Informational only: every other field is
          a deterministic function of the config, so two same-seed
          campaigns agree on everything but this. *)
  phase_profile : Nyx_obs.Profile.snapshot option;
      (** per-phase cost breakdown (reset / prefix-replay / suffix-exec /
          snapshot-create / cov-merge / trim / other) when the campaign
          ran with profiling on; its virtual times sum to [virtual_ns].
          [None] for baselines and unprofiled campaigns. *)
  resilience : resilience option;
      (** fault-injection and supervision counters; [Some] only when a
          fault plan was armed ([~faults] / [~peer_faults]) or a fleet
          supervisor restarted the instance. [None] campaigns are
          byte-identical to pre-resilience results. *)
  placement : placement_stats option;
      (** adaptive snapshot-placement counters; [Some] only for the
          dynamic policy. Deterministic — placement decisions run on the
          virtual clock. *)
  mutation : mutation_stats option;
      (** per-mutator attempt/accept/coverage-credit counters from the
          mutation engine; [Some] for every nyx campaign, [None] for the
          baseline fuzzers. Deterministic. *)
  peer : peer_stats option;
      (** cooperating-peer counters; [Some] only for [--mode peer]
          campaigns. Deterministic. *)
}

val crashed : campaign_result -> bool
(** Any crash other than a Mario solve. *)

val found_kind : campaign_result -> string -> bool

val pp_summary : Format.formatter -> campaign_result -> unit

val pp_resilience : Format.formatter -> resilience -> unit

val pp_peer : Format.formatter -> peer_stats -> unit

val same_deterministic : campaign_result -> campaign_result -> bool
(** Structural equality over every deterministic field — wall-clock
    fields (top-level [wall_s] and the profile's wall columns) are
    masked, since two same-seed runs (or a straight run and a
    kill+resume one) legitimately differ there. *)
