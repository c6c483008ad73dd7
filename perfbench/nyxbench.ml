(* Host-time benchmark for the Nyx-Net reproduction.

     nyxbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

   Untraced runs (--trace 0) measure real wall time and memory of
   deterministic fuzzing campaigns and print the end-to-end metrics. The
   traced run (--trace 1) repeats the workload with spans around every
   public call it makes, replays the final corpus through a rebuilt
   executor stack to split the cost by layer, and prints the per-layer
   metrics. Both check the campaigns' outputs and count failures. The last
   line of stdout is one JSON object: correct, attempted, failed, metrics. *)

open Nyx_core
module W = Workload
module S = Spans

let wall () = float_of_int (S.now_ns ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Output checks.                                                      *)

type check = { c_name : string; mutable c_ok : bool; mutable c_note : string }

let checks : check list ref = ref []

let check name =
  match List.find_opt (fun c -> c.c_name = name) !checks with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_ok = true; c_note = "" } in
    checks := !checks @ [ c ];
    c

let fail_check name note =
  let c = check name in
  if c.c_ok then c.c_note <- note;
  c.c_ok <- false

let note_check name note = (check name).c_note <- note

(* ------------------------------------------------------------------ *)
(* Running one campaign or fleet.                                      *)

type ran = {
  results : Report.campaign_result list;  (** one per instance *)
  fleet : Fleet.outcome option;
  fuzz_s : float;  (** step + finalize, or the whole [Fleet.run] *)
  ckpt_writes : int;
  ckpt_bad : int;
  mid_ckpt : Checkpoint.t option;
  final_ckpt : Checkpoint.t option;
}

type gc_delta = { mutable words : float; mutable minor : int; mutable major : int }

let gc_total = { words = 0.0; minor = 0; major = 0 }

(* Gc deltas around a timed call, accumulated only while tracing. *)
let with_gc f =
  if not !S.enabled then f ()
  else begin
    let a = Gc.quick_stat () in
    let v = f () in
    let b = Gc.quick_stat () in
    gc_total.words <-
      gc_total.words
      +. (b.Gc.minor_words -. a.Gc.minor_words)
      +. (b.Gc.major_words -. a.Gc.major_words)
      -. (b.Gc.promoted_words -. a.Gc.promoted_words);
    gc_total.minor <- gc_total.minor + b.Gc.minor_collections - a.Gc.minor_collections;
    gc_total.major <- gc_total.major + b.Gc.major_collections - a.Gc.major_collections;
    v
  end

let call name f = S.with_span name (fun () -> with_gc f)

let ckpt_path out (c : W.camp) =
  Filename.concat out
    (Printf.sprintf "ckpt-%s-%s-%d.bin" c.w.W.name c.target.W.t_name c.cfg.Campaign.seed)

(* A written checkpoint must load and re-encode to the same bytes. *)
let roundtrip path =
  match (Nyx_resilience.Atomic_io.read_file path, Checkpoint.load path) with
  | Ok raw, Ok ck when Bytes.equal (Checkpoint.encode ck) raw -> Some ck
  | _ -> None

let run_camp ?(profile = false) ?domains ?capture_at ?(keep_final = false) ~out
    (c : W.camp) =
  let peer_faults = W.peer_faults c.w in
  match c.w.W.fleet with
  | Some f ->
    let domains = Option.value domains ~default:f.W.domains in
    let t0 = wall () in
    let o =
      call "fleet.run" (fun () ->
          Fleet.run ~instances:f.W.instances ~domains ?peer:c.script ?peer_faults ~profile
            ~sync_ns:(f.W.sync_ms * 1_000_000) ~config:c.cfg c.entry)
    in
    {
      results = o.Fleet.results;
      fleet = Some o;
      fuzz_s = wall () -. t0;
      ckpt_writes = 0;
      ckpt_bad = 0;
      mid_ckpt = None;
      final_ckpt = None;
    }
  | None ->
    (* Round-trip checks run inside the write hook; their time is taken
       out of the measured fuzzing time. *)
    let hook_s = ref 0.0 and writes = ref 0 and bad = ref 0 and mid = ref None in
    let path = ckpt_path out c in
    let checkpoint =
      Option.map
        (fun ms ->
          Campaign.checkpointing ~path ~interval_ns:(ms * 1_000_000)
            ~on_write:(fun ordinal ->
              let t0 = wall () in
              incr writes;
              (match roundtrip path with
              | Some ck -> if capture_at = Some ordinal then mid := Some ck
              | None -> incr bad);
              hook_s := !hook_s +. (wall () -. t0))
            ())
        c.w.W.checkpoint_ms
    in
    let inst =
      call "campaign.start" (fun () ->
          Campaign.start ?peer:c.script ?peer_faults ~profile ?checkpoint c.cfg c.entry)
    in
    let t1 = wall () in
    call "campaign.step" (fun () -> Campaign.step inst ~until_ns:max_int);
    let t2 = wall () in
    let final_ckpt = if keep_final then Some (Campaign.checkpoint_now inst) else None in
    let t3 = wall () in
    let r = call "campaign.finalize" (fun () -> Campaign.finalize inst) in
    let t4 = wall () in
    if (not keep_final) && Sys.file_exists path then Sys.remove path;
    {
      results = [ r ];
      fleet = None;
      fuzz_s = t2 -. t1 +. (t4 -. t3) -. !hook_s;
      ckpt_writes = !writes;
      ckpt_bad = !bad;
      mid_ckpt = !mid;
      final_ckpt;
    }

let strip_profile (r : Report.campaign_result) = { r with Report.phase_profile = None }

(* Deterministic equality of two runs of one campaign or fleet. Fleet
   makespans are excluded: they model the domain count by design. *)
let same_ran ?(ignore_profile = false) a b =
  let norm r = if ignore_profile then strip_profile r else r in
  List.length a.results = List.length b.results
  && List.for_all2
       (fun x y -> Report.same_deterministic (norm x) (norm y))
       a.results b.results
  &&
  match (a.fleet, b.fleet) with
  | None, None -> true
  | Some x, Some y ->
    x.Fleet.union_edges = y.Fleet.union_edges
    && x.Fleet.sync_epochs = y.Fleet.sync_epochs
    && x.Fleet.total_execs = y.Fleet.total_execs
    && x.Fleet.work_ns = y.Fleet.work_ns
    && x.Fleet.quarantined = y.Fleet.quarantined
  | _ -> false

(* Instances that failed on their own: quarantined by the fleet
   supervisor, aborted a fault, or wrote a checkpoint that does not
   round-trip. *)
let ckpt_written = ref 0

let instance_failures (c : W.camp) ran =
  let quarantined = match ran.fleet with Some o -> o.Fleet.quarantined | None -> 0 in
  if quarantined > 0 then fail_check "no-quarantine" (Printf.sprintf "%d quarantined" quarantined);
  let aborted =
    List.length
      (List.filter
         (fun (r : Report.campaign_result) ->
           match r.Report.resilience with
           | Some res -> res.Report.faults_aborted > 0
           | None -> false)
         ran.results)
  in
  if aborted > 0 then fail_check "no-aborted-faults" (Printf.sprintf "%d instances" aborted);
  if ran.ckpt_bad > 0 then
    fail_check "checkpoint-roundtrip"
      (Printf.sprintf "%d of %d checkpoints of %s seed %d" ran.ckpt_bad ran.ckpt_writes
         c.target.W.t_name c.cfg.Campaign.seed);
  ckpt_written := !ckpt_written + ran.ckpt_writes;
  min (W.instances c) (quarantined + aborted + if ran.ckpt_bad > 0 then W.instances c else 0)

(* The campaign of [c] cut short after its first [n] executions. A cut
   run is the straight run's exact prefix: the exec cap is checked before
   every execution and nothing draws between them. Only for single
   campaigns; a fleet instance's path also depends on its imports. *)
let cut (c : W.camp) n =
  let inst =
    Campaign.start ?peer:c.script ?peer_faults:(W.peer_faults c.w)
      { c.cfg with Campaign.max_execs = n }
      c.entry
  in
  Campaign.step inst ~until_ns:max_int;
  inst

(* The campaign's fault-plan state after its first [n] executions. *)
let plan_after (c : W.camp) n =
  let inst = cut c n in
  if Campaign.execs inst <> n then None
  else Option.map snd (Campaign.checkpoint_now inst).Checkpoint.c_faults

(* How the campaign ran its [n]th execution, read from its own trace:
   whole, as a session prefix that crashed, or as the suffix of a session
   started after [before] executions. *)
type path = Whole | Prefix_crash | Suffix of { before : int }

let path_of_exec (c : W.camp) n =
  let module T = Nyx_obs.Trace in
  let _, events = T.with_memory_sink (fun () -> ignore (cut c n)) in
  let execs = ref 0 and session = ref 0 and mode = ref "" and path = ref None in
  let counted p =
    incr execs;
    if !execs = n then path := Some p
  in
  List.iter
    (fun (e : T.event) ->
      match (e.T.name, e.T.ph) with
      | "prefix", `B -> session := !execs
      | "prefix", `E ->
        if List.assoc_opt "ok" e.T.fields = Some (T.Bool false) then counted Prefix_crash
      | "exec", `B ->
        mode := (match List.assoc_opt "mode" e.T.fields with Some (T.Str s) -> s | _ -> "")
      | "exec", `E -> counted (if !mode = "full" then Whole else Suffix { before = !session })
      | _ -> ())
    events;
  if !execs = n then !path else None

(* A reported crash must replay from its serialized input to the same
   kind on a fresh executor with the campaign's ASan flag, peer script
   and armed fault spec. Under an armed plan the input is not the whole
   reproducer: whether a peer fault fires, and the surgery it does
   (salted with the plan's injection ordinals), depend on the plan's
   state when the campaign ran the input. So the replay restores the
   plan to that state, taken from cut runs of the same campaign, and
   runs the input the way the campaign did: whole, or as a session whose
   prefix runs from the plan state the session started with. *)
let replays (c : W.camp) (r : Report.campaign_result) (cr : Report.crash_report) =
  let spec = Campaign.net_spec () in
  match Nyx_spec.Program.parse spec.Nyx_spec.Net_spec.spec cr.Report.input with
  | Error _ -> false
  | Ok program -> (
    let layout_cookie = Nyx_sim.Rng.int (Nyx_sim.Rng.create r.Report.run_seed) 1_000_000 in
    let exec =
      Executor.create ~asan:c.cfg.Campaign.asan ~layout_cookie ?peer:c.script ~net_spec:spec
        c.entry.Nyx_targets.Registry.target
    in
    let same (x : Report.exec_result) =
      match x.Report.status with
      | Report.Crash { kind; _ } -> kind = cr.Report.kind
      | Report.Pass | Report.Hang -> false
    in
    match W.peer_faults c.w with
    | None -> same (Executor.run_full exec program)
    | Some sp -> (
      let plan = Nyx_resilience.Plan.create sp (Nyx_sim.Rng.create r.Report.run_seed) in
      Executor.arm_faults exec plan;
      let restore_after n =
        match plan_after c n with
        | Some st ->
          Nyx_resilience.Plan.restore_state plan st;
          true
        | None -> false
      in
      let n = cr.Report.found_exec in
      match path_of_exec c n with
      | None -> false
      | Some Whole -> restore_after (n - 1) && same (Executor.run_full exec program)
      | Some Prefix_crash -> (
        restore_after (n - 1)
        && match Executor.start_session exec program with Error x -> same x | Ok _ -> false)
      | Some (Suffix { before }) -> (
        restore_after before
        &&
        match Executor.start_session exec program with
        | Error _ -> false
        | Ok session ->
          (before = n - 1 || restore_after (n - 1)) && same (Executor.run_suffix exec session program))))

(* Replays every crash of [ran]; returns the instances with a crash that
   does not reproduce. *)
let crashes_replayed = ref 0

let crash_failures (c : W.camp) ran =
  List.fold_left
    (fun bad (r : Report.campaign_result) ->
      let crashes =
        List.filter (fun (cr : Report.crash_report) -> cr.Report.kind <> "level-solved") r.Report.crashes
      in
      crashes_replayed := !crashes_replayed + List.length crashes;
      match List.filter (fun cr -> not (replays c r cr)) crashes with
      | [] -> bad
      | cr :: _ ->
        fail_check "crash-replay"
          (Printf.sprintf "%s on %s seed %d does not replay" cr.Report.kind r.Report.target
             r.Report.run_seed);
        bad + 1)
    0 ran.results

(* ------------------------------------------------------------------ *)
(* Deterministic digest.                                               *)

type digest = {
  d_execs : int;
  d_edges : int;
  d_corpus : int;
  d_kinds : (string * string) list;  (** distinct (target, kind) *)
  d_vtime_ns : int;
}

let camp_digest (c : W.camp) ran =
  let budget = c.target.W.budget_ms * 1_000_000 in
  let frontier = c.target.W.frontier in
  let kinds =
    List.concat_map
      (fun (r : Report.campaign_result) ->
        List.filter_map
          (fun (cr : Report.crash_report) ->
            if cr.Report.kind = "level-solved" then None
            else Some (r.Report.target, cr.Report.kind))
          r.Report.crashes)
      ran.results
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 ran.results in
  match ran.fleet with
  | Some o ->
    {
      d_execs = o.Fleet.total_execs;
      d_edges = Option.value ~default:0 o.Fleet.union_edges;
      d_corpus = sum (fun r -> r.Report.corpus_size);
      d_kinds = kinds;
      d_vtime_ns =
        (match
           List.find_opt (fun e -> e.Fleet.se_union_edges >= frontier) o.Fleet.sync_epochs
         with
        | Some e -> e.Fleet.se_at_ns
        | None -> budget);
    }
  | None ->
    {
      d_execs = sum (fun r -> r.Report.execs);
      d_edges = sum (fun r -> r.Report.final_edges);
      d_corpus = sum (fun r -> r.Report.corpus_size);
      d_kinds = kinds;
      d_vtime_ns =
        sum (fun r ->
            match
              Nyx_sim.Stats.Timeline.first_time_reaching r.Report.timeline
                (float_of_int frontier)
            with
            | Some ns -> ns
            | None -> budget);
    }

let total_digest ds =
  List.fold_left
    (fun a d ->
      {
        d_execs = a.d_execs + d.d_execs;
        d_edges = a.d_edges + d.d_edges;
        d_corpus = a.d_corpus + d.d_corpus;
        d_kinds = List.sort_uniq compare (a.d_kinds @ d.d_kinds);
        d_vtime_ns = a.d_vtime_ns + d.d_vtime_ns;
      })
    { d_execs = 0; d_edges = 0; d_corpus = 0; d_kinds = []; d_vtime_ns = 0 }
    ds

let print_digest w ~seed d =
  Printf.printf
    "digest %s seed %d: execs=%d edges=%d corpus=%d crash_kinds=%d vtime_to_frontier_s=%.6f\n"
    w.W.name seed d.d_execs d.d_edges d.d_corpus (List.length d.d_kinds)
    (float_of_int d.d_vtime_ns /. 1e9)

(* ------------------------------------------------------------------ *)
(* Metrics and the result line.                                        *)

type metric = { m_name : string; value : float; unit : string }

let metric m_name unit value = { m_name; value; unit }

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_float m.value) m.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let print_metrics metrics =
  List.iter (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.m_name m.value m.unit) metrics

let print_checks () =
  let c = check "crash-replay" in
  if c.c_ok then c.c_note <- Printf.sprintf "%d crashes" !crashes_replayed;
  (match List.find_opt (fun c -> c.c_name = "checkpoint-roundtrip") !checks with
  | Some c when c.c_ok -> c.c_note <- Printf.sprintf "%d checkpoints" !ckpt_written
  | _ -> ());
  List.iter
    (fun c ->
      Printf.printf "  check %-26s %s%s\n" c.c_name
        (if c.c_ok then "ok" else "FAILED")
        (if c.c_note = "" then "" else " (" ^ c.c_note ^ ")"))
    !checks

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let median_f = function
  | [] -> 0.0
  | xs -> S.median (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics.                               *)

let setup_reps = 3

(* [Campaign.start] of every instance of [c], as the campaign (or the
   fleet) starts it, without fuzzing. *)
let time_setup (c : W.camp) =
  let peer_faults = W.peer_faults c.w in
  let collect_exports = c.w.W.fleet <> None in
  List.fold_left
    (fun acc cfg ->
      let t0 = wall () in
      ignore (Campaign.start ?peer:c.script ?peer_faults ~collect_exports cfg c.entry);
      acc +. (wall () -. t0))
    0.0 (W.fleet_instance_cfgs c)

type tally = { mutable attempted : int; mutable failed : int }

(* Runs [c] once, counting it; [None] when it raised. *)
let attempt tally ?profile ?domains ?capture_at ?keep_final ~out (c : W.camp) =
  tally.attempted <- tally.attempted + W.instances c;
  match run_camp ?profile ?domains ?capture_at ?keep_final ~out c with
  | ran ->
    tally.failed <- tally.failed + instance_failures c ran;
    Some ran
  | exception e ->
    tally.failed <- tally.failed + W.instances c;
    fail_check "campaigns-complete"
      (Printf.sprintf "%s seed %d: %s" c.target.W.t_name c.cfg.Campaign.seed
         (Printexc.to_string e));
    None

let untraced ~out ~seed ~seconds (w : W.t) =
  let camps = Array.of_list (W.camps w ~seed) in
  let n = Array.length camps in
  (* One discarded round warms the code and data the starts touch. *)
  Array.iter (fun c -> ignore (time_setup c)) camps;
  let setup = Array.make n [] in
  let tally = { attempted = 0; failed = 0 } in
  let first = Array.make n None and walls = Array.make n [] in
  ignore (check "campaigns-complete");
  ignore (check "deterministic-passes");
  let differs (c : W.camp) =
    fail_check "deterministic-passes"
      (Printf.sprintf "%s seed %d" c.target.W.t_name c.cfg.Campaign.seed);
    tally.failed <- tally.failed + W.instances c
  in
  let t_start = wall () in
  let passes = ref 0 and pass_s = ref 0.0 in
  (* Whole passes over the campaigns, as many as fit in [seconds], at
     least one, so every campaign is measured equally often. Every pass
     must reproduce the first one. *)
  while !passes = 0 || wall () -. t_start +. !pass_s <= seconds do
    let t_pass = wall () in
    Array.iteri
      (fun idx c ->
        (* Set-up samples are taken right before each campaign's first run,
           so they spread over the whole measured window instead of one
           short burst at start-up that a host hiccup can skew. *)
        if !passes = 0 then setup.(idx) <- List.init setup_reps (fun _ -> time_setup c);
        match attempt tally ~out c with
        | None -> ()
        | Some ran -> (
          walls.(idx) <- ran.fuzz_s :: walls.(idx);
          match first.(idx) with
          | None -> first.(idx) <- Some ran
          | Some r0 -> if not (same_ran r0 ran) then differs c))
      camps;
    pass_s := wall () -. t_pass;
    incr passes
  done;
  let measured_s = wall () -. t_start in
  (* Read before the output checks, whose replays are not fuzzing. *)
  let rss_mb = peak_rss_mb () in
  (* One pass leaves nothing to compare: run each target's first
     campaign once more, untimed. *)
  let again = if !passes > 1 then 0 else min n (List.length w.W.targets) in
  for idx = 0 to again - 1 do
    let c = camps.(idx) in
    match (first.(idx), run_camp ~out c) with
    | Some r0, ran -> if not (same_ran r0 ran) then differs c
    | None, _ -> ()
    | exception e ->
      fail_check "campaigns-complete"
        (Printf.sprintf "%s seed %d: %s" c.target.W.t_name c.cfg.Campaign.seed
           (Printexc.to_string e));
      tally.failed <- tally.failed + W.instances c
  done;
  note_check "deterministic-passes"
    (if again = 0 then Printf.sprintf "%d passes of %d campaigns" !passes n
     else Printf.sprintf "1 pass of %d campaigns, %d run again" n again);
  if w.W.checkpoint_ms <> None then ignore (check "checkpoint-roundtrip");
  ignore (check "crash-replay");
  let digests = ref [] and execs = ref 0 and fuzz = ref 0.0 and setup_s = ref 0.0 in
  Array.iteri
    (fun idx c ->
      setup_s := !setup_s +. median_f setup.(idx);
      match first.(idx) with
      | None -> ()
      | Some ran ->
        tally.failed <- tally.failed + crash_failures c ran;
        let d = camp_digest c ran in
        digests := d :: !digests;
        execs := !execs + d.d_execs;
        fuzz := !fuzz +. median_f walls.(idx))
    camps;
  let d = total_digest !digests in
  let metrics =
    [
      metric "execs_per_s" "execs/s" (float_of_int !execs /. !fuzz);
      metric "setup_s" "s" !setup_s;
      metric "edges" "edges" (float_of_int d.d_edges);
      metric "vtime_to_frontier_s" "s" (float_of_int d.d_vtime_ns /. 1e9);
      metric "crash_kinds" "count" (float_of_int (List.length d.d_kinds));
      metric "peak_rss_mb" "MB" rss_mb;
    ]
  in
  (d, metrics, tally, measured_s, !passes * n)

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics.                                  *)

let replay_execs = 4000
let replay_ns = 2_000_000_000

let timing ~span ~name ~scale ~unit spans =
  let d = S.durations spans span in
  [
    metric (name ^ ".p50") unit (S.percentile 0.5 d /. scale);
    metric (name ^ ".p99") unit (S.percentile 0.99 d /. scale);
    metric (name ^ ".n") "count" (float_of_int (Array.length d));
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The final corpus a fleet instance reaches, from instance 0's config
   run on its own ([Fleet.run] does not hand out its instances). *)
let standalone_final (c : W.camp) =
  let cfg = List.hd (W.fleet_instance_cfgs c) in
  let inst =
    Campaign.start ?peer:c.script ?peer_faults:(W.peer_faults c.w) cfg c.entry
  in
  Campaign.step inst ~until_ns:max_int;
  Campaign.checkpoint_now inst

let layers =
  [ "snapshot"; "aux"; "interp"; "peer"; "mutation"; "coverage"; "corpus"; "policy"; "checkpoint" ]

let traced ~out ~seed (w : W.t) =
  let camps = Array.of_list (W.camps w ~seed) in
  let tally = { attempted = 0; failed = 0 } in
  ignore (check "campaigns-complete");
  let pass ?profile ?(capture_at = fun _ -> 0) ?(keep_final = fun _ -> false) () =
    Array.mapi
      (fun i c ->
        attempt tally ?profile ~capture_at:(capture_at i) ~keep_final:(keep_final i) ~out c)
      camps
  in
  let rans a = List.filter_map Fun.id (Array.to_list a) in
  let execs_of rans =
    List.fold_left
      (fun a ran -> List.fold_left (fun a r -> a + r.Report.execs) a ran.results)
      0 rans
  in
  let fuzz_of rans = List.fold_left (fun a ran -> a +. ran.fuzz_s) 0.0 rans in
  (* 1. The workload untraced, then traced: spans around every public
     call, Gc deltas, and the campaigns' own phase profiles. *)
  let p0 = pass () in
  let replayed i = i < List.length w.W.targets in
  let capture_at i =
    match p0.(i) with
    | Some r when replayed i && r.ckpt_writes > 1 -> r.ckpt_writes / 2
    | _ -> 0
  in
  S.enabled := true;
  if w.W.fleet <> None then
    Array.iter
      (fun c -> ignore (S.with_span ~side:true "campaign.start" (fun () -> time_setup c)))
      camps;
  let p1 = pass ~profile:true ~capture_at ~keep_final:replayed () in
  S.enabled := false;
  let n_campaign_spans = !S.count in
  ignore (check "traced-equals-untraced");
  Array.iteri
    (fun i c ->
      match (p0.(i), p1.(i)) with
      | Some a, Some b when not (same_ran ~ignore_profile:true a b) ->
        fail_check "traced-equals-untraced"
          (Printf.sprintf "%s seed %d" c.W.target.W.t_name c.W.cfg.Campaign.seed);
        tally.failed <- tally.failed + W.instances c
      | _ -> ())
    camps;
  ignore (check "crash-replay");
  Array.iteri
    (fun i c -> Option.iter (fun ran -> tally.failed <- tally.failed + crash_failures c ran) p0.(i))
    camps;
  let digests = Array.to_list (Array.mapi (fun i c -> Option.map (camp_digest c) p0.(i)) camps) in
  let d = total_digest (List.filter_map Fun.id digests) in
  (* Resume from a mid-run checkpoint must reach the straight run's result. *)
  if w.W.checkpoint_ms <> None then begin
    ignore (check "resume-equals-straight");
    Array.iteri
      (fun i c ->
        match p1.(i) with
        | Some ran when replayed i -> (
          tally.attempted <- tally.attempted + 1;
          match ran.mid_ckpt with
          | None ->
            fail_check "resume-equals-straight" (c.W.target.W.t_name ^ ": no mid-run checkpoint");
            tally.failed <- tally.failed + 1
          | Some ck ->
            let r = Campaign.resume ~profile:true ck c.W.entry in
            if not (Report.same_deterministic r (List.hd ran.results)) then begin
              fail_check "resume-equals-straight" c.W.target.W.t_name;
              tally.failed <- tally.failed + 1
            end)
        | _ -> ())
      camps
  end;
  (* 2. Layer replay of each target's first campaign. *)
  let k = Replay.counters () in
  let replay_from = !S.count in
  Array.iteri
    (fun i c ->
      match p1.(i) with
      | Some ran when replayed i ->
        let final = match ran.final_ckpt with Some ck -> ck | None -> standalone_final c in
        let ckpt =
          if ran.ckpt_writes = 0 then None
          else
            Some
              ( ckpt_path out c,
                (List.hd ran.results).Report.execs / ran.ckpt_writes )
        in
        S.enabled := true;
        Replay.run ?ckpt ~max_execs:replay_execs ~max_ns:replay_ns c final k;
        S.enabled := false;
        let path = ckpt_path out c in
        if Sys.file_exists path then Sys.remove path
      | _ -> ())
    camps;
  (* 3. The same fleets on two domains: same result, and the real speedup
     two domains buy. *)
  let two_domains = ref [] in
  let real_speedup =
    match w.W.fleet with
    | None -> 0.0
    | Some _ ->
      ignore (check "fleet-2-domains-equals-1");
      let w1 = ref 0.0 and w2 = ref 0.0 in
      Array.iteri
        (fun i c ->
          match (p0.(i), attempt tally ~domains:2 ~out c) with
          | Some a, Some b ->
            two_domains := Option.to_list b.fleet @ !two_domains;
            w1 := !w1 +. a.fuzz_s;
            w2 := !w2 +. b.fuzz_s;
            if not (same_ran a b) then begin
              fail_check "fleet-2-domains-equals-1"
                (Printf.sprintf "seed %d" c.W.cfg.Campaign.seed);
              tally.failed <- tally.failed + W.instances c
            end
          | _ -> ())
        camps;
      !w1 /. !w2
  in
  let spans = S.all () in
  S.write_csv
    (Filename.concat out (Printf.sprintf "spans-%s-seed%d.csv" w.W.name seed))
    spans;
  let self = S.self_times spans in
  let campaign_spans = Array.sub spans 0 n_campaign_spans in
  let replay_spans = Array.sub spans replay_from (Array.length spans - replay_from) in
  (* Self time per layer over the replay timeline; side calls excluded. *)
  let layer_ns = Hashtbl.create 16 in
  Array.iteri
    (fun j s ->
      if not s.S.side then
        match S.layer s.S.name with
        | Some l ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt layer_ns l) in
          Hashtbl.replace layer_ns l (prev +. float_of_int self.(replay_from + j))
        | None -> ())
    replay_spans;
  let get l = Option.value ~default:0.0 (Hashtbl.find_opt layer_ns l) in
  (* The engine restores aux state inside every restore and captures it
     inside every create, so aux time is part of snapshot time: estimate
     it from the separate calls, capped at the snapshot time. *)
  let aux_ns =
    (float_of_int (k.Replay.root_restores + k.Replay.inc_restores)
     *. S.median (S.durations replay_spans "aux.restore"))
    +. (float_of_int k.Replay.creates *. S.median (S.durations replay_spans "aux.capture"))
  in
  Hashtbl.replace layer_ns "aux" (Float.min aux_ns (get "snapshot"));
  let replay_wall = float_of_int (max 1 k.Replay.wall_ns) in
  let share l = get l /. replay_wall in
  let attributed =
    List.fold_left (fun a l -> if l = "aux" then a else a +. share l) 0.0 layers
  in
  let span_total name = Array.fold_left ( +. ) 0.0 (S.durations campaign_spans name) in
  let campaign_share =
    let start = span_total "campaign.start" in
    start
    /. Float.max 1.0
         (start +. span_total "campaign.step" +. span_total "campaign.finalize"
        +. span_total "fleet.run")
  in
  let fleet_share =
    match w.W.fleet with
    | Some _ when real_speedup > 0.0 -> Float.max 0.0 (1.0 -. (real_speedup /. 2.0))
    | _ -> 0.0
  in
  let r0 = rans p0 and r1 = rans p1 in
  let untraced_eps = float_of_int (execs_of r0) /. fuzz_of r0 in
  let traced_eps = float_of_int (execs_of r1) /. fuzz_of r1 in
  let results = List.concat_map (fun ran -> ran.results) r1 in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let execs = sum (fun r -> r.Report.execs) in
  let snap f =
    sum (fun r -> match r.Report.snapshot_stats with Some s -> f s | None -> 0)
  in
  let placement f =
    sum (fun r -> match r.Report.placement with Some p -> f p | None -> 0)
  in
  let peer f = sum (fun r -> match r.Report.peer with Some p -> f p | None -> 0) in
  let mutator name f =
    sum (fun r ->
        match r.Report.mutation with
        | None -> 0
        | Some m -> (
          match List.find_opt (fun s -> s.Report.mut_name = name) m.Report.mutators with
          | Some s -> f s
          | None -> 0))
  in
  let fsum ?(fleets = List.filter_map (fun ran -> ran.fleet) r0) f =
    List.fold_left (fun a o -> a + f o) 0 fleets
  in
  let mutator_metrics =
    List.concat_map
      (fun m ->
        let attempts = mutator m (fun s -> s.Report.mut_attempts) in
        [
          metric
            (Printf.sprintf "mutation.%s.accept_ratio" m)
            "ratio"
            (ratio (mutator m (fun s -> s.Report.mut_accepts)) attempts);
          metric
            (Printf.sprintf "mutation.%s.reject_ratio" m)
            "ratio"
            (ratio (mutator m (fun s -> s.Report.mut_rejected)) attempts);
        ])
      [ "havoc"; "splice"; "generate" ]
  in
  let mean_int = function
    | [] -> 0.0
    | xs -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
  in
  let us = 1e3 and ms = 1e6 in
  let metrics =
    timing ~span:"campaign.start" ~name:"campaign.start_ms" ~scale:ms ~unit:"ms" campaign_spans
    @ timing ~span:"snapshot.restore" ~name:"snapshot.restore_us" ~scale:us ~unit:"us" replay_spans
    @ timing ~span:"snapshot.restore_root" ~name:"snapshot.restore_root_us" ~scale:us ~unit:"us"
        replay_spans
    @ timing ~span:"snapshot.create" ~name:"snapshot.create_us" ~scale:us ~unit:"us" replay_spans
    @ [
        metric "snapshot.pages_per_restore" "pages"
          (ratio
             (snap (fun s -> s.Nyx_snapshot.Engine.pages_restored))
             (snap (fun s ->
                  s.Nyx_snapshot.Engine.root_restores + s.Nyx_snapshot.Engine.incremental_restores)));
      ]
    @ timing ~span:"aux.capture" ~name:"aux.capture_us" ~scale:us ~unit:"us" replay_spans
    @ timing ~span:"aux.restore" ~name:"aux.restore_us" ~scale:us ~unit:"us" replay_spans
    @ [ metric "aux.bytes" "bytes" (mean_int k.Replay.aux_bytes) ]
    @ timing ~span:"interp.run" ~name:"interp.run_us" ~scale:us ~unit:"us" replay_spans
    @ [
        metric "interp.ops_per_exec" "ops" (ratio k.Replay.ops k.Replay.execs);
        metric "netemu.syscalls_per_exec" "syscalls" (ratio k.Replay.syscalls k.Replay.execs);
      ]
    @ timing ~span:"mutation.mutate" ~name:"mutation.mutate_us" ~scale:us ~unit:"us" replay_spans
    @ [
        metric "mutation.alloc_words_per_call" "words"
          (if k.Replay.mut_calls = 0 then 0.0
           else k.Replay.mut_words /. float_of_int k.Replay.mut_calls);
      ]
    @ mutator_metrics
    @ timing ~span:"coverage.merge" ~name:"coverage.merge_us" ~scale:us ~unit:"us" replay_spans
    @ [ metric "coverage.novel_per_kexec" "1/kexec" (1000.0 *. ratio (sum (fun r -> r.Report.corpus_size)) execs) ]
    @ timing ~span:"corpus.schedule" ~name:"corpus.schedule_us" ~scale:us ~unit:"us" replay_spans
    @ [ metric "corpus.size" "entries" (float_of_int (sum (fun r -> r.Report.corpus_size))) ]
    @ timing ~span:"policy.probe" ~name:"policy.probe_ms" ~scale:ms ~unit:"ms" replay_spans
    @ timing ~span:"policy.state_hash" ~name:"policy.state_hash_us" ~scale:us ~unit:"us" replay_spans
    @ [
        metric "policy.probes" "count" (float_of_int (placement (fun p -> p.Report.probes)));
        metric "policy.probe_hashes" "count" (float_of_int (placement (fun p -> p.Report.probe_hashes)));
        metric "policy.moves" "count" (float_of_int (placement (fun p -> p.Report.moves)));
      ]
    @ timing ~span:"checkpoint.encode" ~name:"checkpoint.encode_ms" ~scale:ms ~unit:"ms" replay_spans
    @ timing ~span:"checkpoint.decode" ~name:"checkpoint.decode_ms" ~scale:ms ~unit:"ms" replay_spans
    @ timing ~span:"checkpoint.save" ~name:"checkpoint.save_ms" ~scale:ms ~unit:"ms" replay_spans
    @ [
        metric "checkpoint.bytes" "bytes" (float_of_int k.Replay.ckpt_bytes);
        metric "fleet.real_speedup" "x" real_speedup;
        metric "fleet.model_speedup" "x"
          (ratio
             (fsum ~fleets:!two_domains (fun o -> o.Fleet.work_ns))
             (fsum ~fleets:!two_domains (fun o -> o.Fleet.makespan_ns)));
        metric "fleet.epochs" "count" (float_of_int (fsum (fun o -> List.length o.Fleet.sync_epochs)));
        metric "fleet.imports" "count"
          (float_of_int
             (fsum (fun o ->
                  List.fold_left (fun a e -> a + e.Fleet.se_imports) 0 o.Fleet.sync_epochs)));
        metric "gc.alloc_words_per_exec" "words" (gc_total.words /. float_of_int (max 1 execs));
        metric "gc.minor_per_kexec" "1/kexec" (1000.0 *. ratio gc_total.minor execs);
        metric "gc.major_per_kexec" "1/kexec" (1000.0 *. ratio gc_total.major execs);
      ]
    @ timing ~span:"peer.handler" ~name:"peer.handler_us" ~scale:us ~unit:"us" replay_spans
    @ [
        metric "peer.actions_per_exec" "actions" (ratio (peer (fun p -> p.Report.peer_actions)) execs);
        metric "peer.desyncs_per_action" "ratio"
          (ratio (peer (fun p -> p.Report.peer_desyncs)) (peer (fun p -> p.Report.peer_actions)));
        metric "peer.quarantines_per_kexec" "1/kexec"
          (1000.0 *. ratio (peer (fun p -> p.Report.peer_quarantines)) execs);
      ]
    @ List.map (fun l -> metric (l ^ ".share") "fraction" (share l)) layers
    @ [
        metric "campaign.share" "fraction" campaign_share;
        metric "fleet.share" "fraction" fleet_share;
        metric "unattributed.share" "fraction" (1.0 -. attributed);
        metric "trace.overhead" "fraction" ((untraced_eps /. traced_eps) -. 1.0);
      ]
  in
  (* The per-layer table. *)
  Printf.printf "\nper-layer self time over the replay timeline (%.1f ms, %d execs)\n"
    (replay_wall /. 1e6) k.Replay.execs;
  Printf.printf "  %-12s %12s %10s %8s\n" "layer" "self_ms" "calls" "share";
  List.iter
    (fun l ->
      let calls =
        Array.fold_left
          (fun a s -> if (not s.S.side) && S.layer s.S.name = Some l then a + 1 else a)
          0 replay_spans
      in
      Printf.printf "  %-12s %12.3f %10d %7.1f%%\n" l (get l /. 1e6) calls (100.0 *. share l))
    layers;
  Printf.printf "  %-12s %12.3f %10s %7.1f%%\n" "unattributed"
    ((replay_wall -. (attributed *. replay_wall)) /. 1e6)
    "-" (100.0 *. (1.0 -. attributed));
  Printf.printf
    "  (aux is estimated from separate calls and is part of snapshot; campaign.share \
     %.2f%% is over the traced campaigns, fleet.share %.1f%% is 1 - speedup of 2 domains / 2)\n"
    (100.0 *. campaign_share) (100.0 *. fleet_share);
  Printf.printf "tracing overhead: untraced %.0f execs/s, traced %.0f execs/s (%+.1f%%)\n"
    untraced_eps traced_eps
    (100.0 *. ((untraced_eps /. traced_eps) -. 1.0));
  (* Cross-check against the campaigns' own phase profiles. *)
  let phase_wall = Hashtbl.create 16 and total = ref 0.0 in
  List.iter
    (fun (r : Report.campaign_result) ->
      match r.Report.phase_profile with
      | None -> ()
      | Some p ->
        total := !total +. p.Nyx_obs.Profile.total_wall_s;
        List.iter
          (fun (e : Nyx_obs.Profile.entry) ->
            let name = Nyx_obs.Profile.phase_name e.Nyx_obs.Profile.phase in
            Hashtbl.replace phase_wall name
              (e.Nyx_obs.Profile.wall_s
              +. Option.value ~default:0.0 (Hashtbl.find_opt phase_wall name)))
          p.Nyx_obs.Profile.entries)
    results;
  Printf.printf "profile cross-check (wall share per phase, traced campaigns):";
  Hashtbl.iter
    (fun name s -> if s > 0.0 then Printf.printf " %s %.1f%%" name (100.0 *. s /. !total))
    phase_wall;
  print_newline ();
  (d, metrics, tally)

(* ------------------------------------------------------------------ *)

let run_workload ~out ~seed ~seconds ~trace (w : W.t) =
  checks := [];
  crashes_replayed := 0;
  ckpt_written := 0;
  Printf.printf "== %s, seed %d, %s ==\n%!" w.W.name seed
    (if trace then "traced run" else Printf.sprintf "%.0f s measured" seconds);
  let d, metrics, tally =
    if trace then traced ~out ~seed w
    else begin
      let d, metrics, tally, measured_s, runs = untraced ~out ~seed ~seconds w in
      Printf.printf "  %d campaign runs in %.1f s\n" runs measured_s;
      (d, metrics, tally)
    end
  in
  print_metrics metrics;
  Printf.printf "  ops %d  failed %d\n" tally.attempted tally.failed;
  print_checks ();
  print_digest w ~seed d;
  let correct = tally.failed = 0 && List.for_all (fun c -> c.c_ok) !checks in
  (correct, tally, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "nyxbench --workload NAME|all --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N seed the workload's campaigns derive from");
      ("--seconds", Arg.Set_float seconds, "S how long an untraced run measures");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or the traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die msg =
    prerr_endline ("nyxbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let workloads =
    if !workload = "all" then W.all
    else
      match W.find !workload with
      | Some w -> [ w ]
      | None ->
        die
          (Printf.sprintf "unknown workload %S (one of: %s, all)" !workload
             (String.concat ", " (List.map (fun w -> w.W.name) W.all)))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (!seconds > 0.0) then die "--seconds must be positive";
  (* Checkpoints and span files go here, inside the checkout. *)
  let out = "perfbench-out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let trace = !trace = 1 in
  let runs =
    List.map
      (fun w -> (w, run_workload ~out ~seed:!seed ~seconds:!seconds ~trace w))
      workloads
  in
  let correct = List.for_all (fun (_, (ok, _, _)) -> ok) runs in
  let attempted = List.fold_left (fun a (_, (_, t, _)) -> a + t.attempted) 0 runs in
  let failed = List.fold_left (fun a (_, (_, t, _)) -> a + t.failed) 0 runs in
  let metrics =
    match runs with
    | [ (_, (_, _, ms)) ] -> ms
    | _ ->
      List.concat_map
        (fun (w, (_, _, ms)) ->
          List.map (fun m -> { m with m_name = w.W.name ^ "." ^ m.m_name }) ms)
        runs
  in
  print_result ~correct ~attempted ~failed metrics
