(* The benchmark's workloads and the campaigns each one runs.

   Every workload is a closed loop: one process, one fuzzing loop per
   domain, each loop starting its next execution when the previous one
   returns. A run's inputs are [subseeds] campaigns per target, seeded
   from the benchmark's [--seed]; the same seed gives the same campaigns.
   Many short campaigns per run, rather than one long one, keep the
   run-to-run spread of the seed-dependent metrics (edges, time to
   frontier, crash kinds) small. *)

open Nyx_core

type target = {
  t_name : string;
  budget_ms : int;  (** virtual budget of each campaign on this target *)
  frontier : int;
      (** edge count behind [vtime_to_frontier_s]; every seed tried
          reaches it within [budget_ms] *)
}

type fleet = { instances : int; domains : int; sync_ms : int }

type t = {
  name : string;
  policy : Policy.kind;
  engine : Engines.kind;
  trim : bool;
  asan : bool;
  peer : bool;  (** [--mode peer] with every encoder-fault site armed *)
  checkpoint_ms : int option;  (** periodic checkpoint interval, virtual *)
  fleet : fleet option;  (** [Some]: each campaign is a synced [Fleet.run] *)
  subseeds : int;
  targets : target list;
}

let t name budget_ms frontier = { t_name = name; budget_ms; frontier }

let base =
  {
    name = "";
    policy = Policy.Aggressive;
    engine = Engines.Havoc;
    trim = false;
    asan = false;
    peer = false;
    checkpoint_ms = None;
    fleet = None;
    subseeds = 1;
    targets = [];
  }

(* Why each workload exists, what it loads, and its frontiers (the edge
   counts behind [vtime_to_frontier_s], reached by every seed tried). *)
let all =
  [
    (* The paper's default configuration. Almost all the work is in the
       per-exec hot path: incremental restore, suffix execution, havoc and
       coverage merge; no probes, checkpoints, typed mutators, peer or
       Pool. The targets differ in prefix depth, exec rate and size. *)
    {
      base with
      name = "nyx-aggressive";
      subseeds = 48;
      targets = [ t "lightftp" 4_000 50; t "proftpd" 10_000 62; t "echo" 2_000 22 ];
    };
    (* The only workload with placement probes, root restores from trim
       and probes, moving incremental snapshots, splice/generate with
       offline verification, and checkpoint encode and write. A gain for
       havoc or incremental restore that costs these shows here. *)
    {
      base with
      name = "typed-dynamic";
      policy = Policy.Dynamic;
      engine = Engines.Typed;
      trim = true;
      checkpoint_ms = Some 2_000;
      subseeds = 24;
      targets = [ t "pure-ftpd" 5_000 55; t "openssl" 8_000 63; t "exim" 10_000 70 ];
    };
    (* The only workload where Pool, sync barriers and imports do work.
       Timed on one domain: on two, the spread of execs_per_s over five
       seeds on a 2-vCPU VM was 0.38 to 0.77, far over any bound. The
       traced run also runs every fleet on two domains, for the real
       speedup and the identity check.
       dnsmasq, not lightftp: lightftp has no planted bug, and every
       workload must find a crash kind. *)
    {
      base with
      name = "fleet-sync";
      fleet = Some { instances = 2; domains = 1; sync_ms = 100 };
      subseeds = 64;
      targets = [ t "dnsmasq" 3_000 74 ];
    };
    (* The only workload that loads lib/peer, whose Marshal'd session
       state every snapshot captures, with every encoder-fault site
       armed and ASan on. *)
    {
      base with
      name = "peer-faults";
      asan = true;
      peer = true;
      subseeds = 96;
      targets = [ t "lightftp" 5_000 62; t "tinydtls" 5_000 38; t "mysql-client" 5_000 37 ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Every encoder-fault site armed: the peer_matrix spec (length-lie at
   full rate reaches the planted trusted-length bugs). *)
let peer_fault_spec =
  "flip:0.5,truncate:0.5,duplicate:0.5,length-lie:1.0,desync-frame:0.5,drop-field:0.5"

let peer_faults w =
  if not w.peer then None
  else
    match Nyx_peer.Peer_fault.parse_spec peer_fault_spec with
    | Ok sp -> Some sp
    | Error m -> failwith ("peer fault spec: " ^ m)

(* One campaign (or one fleet) of a run. *)
type camp = {
  w : t;
  target : target;
  entry : Nyx_targets.Registry.entry;
  script : Nyx_peer.Peer_script.t option;
  cfg : Campaign.config;
}

let camps w ~seed =
  let of_target k target =
    let entry =
      match Nyx_targets.Registry.find target.t_name with
      | Some e -> e
      | None -> failwith ("unknown target " ^ target.t_name)
    in
    let script =
      if not w.peer then None
      else
        match Nyx_peer.Peer_script.find target.t_name with
        | Some s -> Some s
        | None -> failwith ("no peer script for " ^ target.t_name)
    in
    let cfg =
      {
        Campaign.default_config with
        Campaign.policy = w.policy;
        budget_ns = target.budget_ms * 1_000_000;
        max_execs = max_int;
        seed = (seed * 1_000_003) + k;
        asan = w.asan;
        trim = w.trim;
        engine = w.engine;
      }
    in
    { w; target; entry; script; cfg }
  in
  (* Sub-seed major, so a partial pass still covers every target. *)
  List.concat (List.init w.subseeds (fun k -> List.map (of_target k) w.targets))

(* The configs [Fleet.run] derives for its instances (instance [i] runs
   seed [seed + 1000 i]), for timing their set-up outside the fleet. *)
let fleet_instance_cfgs c =
  match c.w.fleet with
  | None -> [ c.cfg ]
  | Some f ->
    List.init f.instances (fun i ->
        { c.cfg with Campaign.seed = c.cfg.Campaign.seed + (1000 * i) })

let instances c = match c.w.fleet with None -> 1 | Some f -> f.instances
