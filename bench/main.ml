(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §3 for the experiment index and
   EXPERIMENTS.md for recorded paper-vs-measured results).

   Usage:  dune exec bench/main.exe [-- EXPERIMENT... [--budget S] [--sync-ms MS] [-o PATH]]
   Experiments: table1 table2 table3 table4 table5 fig5 fig6 scalability
                ablation_reuse ablation_dirty ablation_boundary
                ablation_remirror bechamel parallel_smoke snapshot_matrix
                mutation_matrix hotpath peer_matrix faultcheck statecheck all
   The three coverage-gate matrices (snapshot_matrix, mutation_matrix,
   peer_matrix) always enforce their gates, like faultcheck and
   statecheck: each fails unless its claim holds on its share of targets.
   Flags:
     --budget S      parallel_smoke virtual budget in seconds (default 10)
     --sync-ms MS    parallel_smoke corpus-sync interval in virtual ms
                     (default 250)
     -o PATH         write the experiment's JSON artifact (BENCH_*.json,
                     FAULTCHECK.json, STATECHECK.json) to PATH instead of
                     its name in the working directory; one experiment
                     only. Smoke runs use it to keep the committed files.
   Environment:
     NYX_BENCH_BUDGET_S    virtual seconds per campaign (default 30)
     NYX_BENCH_REPS        repetitions per cell (default 1; paper used 10)
     NYX_BENCH_MAX_EXECS   execution cap per campaign (default 30000)
     NYX_BENCH_MARIO       comma-separated levels for table4
                           (default "1-1,1-2,1-3,1-4,2-1"; "all" = 32 levels)
     NYX_BENCH_OUT         CSV output directory (default "bench_out")
     NYX_DOMAINS           worker domains for campaign grids / fleets
                           (default: recommended count; 1 = sequential).
                           Tables, CSVs and BENCH files are byte-identical
                           either way (make bench-identity checks the
                           paper tables): campaigns are deterministic
                           functions of their inputs and a grid's results
                           merge in submission order.
     NYX_BENCH_SCALE_GATE  if set (e.g. "0.7"), parallel_smoke fails when any
                           fleet size N scores mean speedup < gate * N *)

open Nyx_core

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "%s expects an integer, got %S\n" name v;
      exit 1)

(* Command-line flags. Domain-safety invariant (domain-safe): written
   once during argv parsing in [main], before any worker domain exists;
   read-only afterwards. *)
let flag_budget_s : int option ref = ref None

(* domain-safe: same write-once-before-domains invariant as above. *)
let flag_sync_ms : int option ref = ref None

(* domain-safe: same write-once-before-domains invariant as above. *)
let flag_out : string option ref = ref None

let budget_ns = env_int "NYX_BENCH_BUDGET_S" 30 * 1_000_000_000
let reps = env_int "NYX_BENCH_REPS" 1
let max_execs = env_int "NYX_BENCH_MAX_EXECS" 30_000
let out_dir = Option.value ~default:"bench_out" (Sys.getenv_opt "NYX_BENCH_OUT")

let mario_levels () =
  match Sys.getenv_opt "NYX_BENCH_MARIO" with
  | Some "all" -> List.map (fun l -> l.Nyx_mario.Level.name) (Nyx_mario.Level.all ())
  | Some s -> String.split_on_char ',' s
  | None -> [ "1-1"; "1-2"; "1-3"; "1-4"; "2-1" ]

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let write_csv name lines =
  ensure_out_dir ();
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  Printf.printf "  [csv] %s\n%!" path

(* JSON artifact values; floats print with six decimals. *)
type json =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* Objects and scalar arrays print inline; an array of objects puts each
   element on its own line, indented two past the line that opens it. *)
let rec json_string indent = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6f" f
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "%S" s
  | Arr (Obj _ :: _ as items) ->
    let pad = String.make (indent + 2) ' ' in
    Printf.sprintf "[\n%s\n%s]"
      (String.concat ",\n" (List.map (fun v -> pad ^ json_string (indent + 2) v) items))
      (String.make indent ' ')
  | Arr items -> "[" ^ String.concat ", " (List.map (json_string indent) items) ^ "]"
  | Obj members ->
    let member (k, v) = Printf.sprintf "%S: %s" k (json_string indent v) in
    "{" ^ String.concat ", " (List.map member members) ^ "}"

(* A JSON artifact (BENCH_*.json, FAULTCHECK.json, STATECHECK.json), one
   top-level member per line, written to [path] (relative to the working
   directory, not [out_dir]), or to the [-o] path, whose directory is
   created if missing. *)
let write_json path members =
  let path = Option.value !flag_out ~default:path in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let member (k, v) = "  " ^ json_string 2 (Str k) ^ ": " ^ json_string 2 v in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc ("{\n" ^ String.concat ",\n" (List.map member members) ^ "\n}\n"));
  Printf.printf "  [json] %s\n%!" path

(* ------------------------------------------------------------------ *)
(* The campaign grid: every (row, arm, seed) campaign of an experiment,
   in one fan-out. Each campaign is a deterministic function of its
   inputs and Pool.map_list returns results in submission order, so
   whatever is built from a grid is the same at any NYX_DOMAINS. *)

(* [run row arm seed] for every row, arm and seed; per row, each arm with
   its results in seed order. *)
let grid ~rows ~arms ~seeds run =
  let tasks =
    List.concat_map
      (fun row -> List.concat_map (fun arm -> List.map (fun seed -> (row, arm, seed)) seeds) arms)
      rows
  in
  Printf.eprintf "  [pool] %d campaigns on %d domains\n%!" (List.length tasks)
    (Nyx_parallel.Pool.default_domains ());
  let results =
    Array.of_list (Nyx_parallel.Pool.map_list (fun (row, arm, seed) -> run row arm seed) tasks)
  in
  let n_arms = List.length arms and n_seeds = List.length seeds in
  List.mapi
    (fun i row ->
      ( row,
        List.mapi
          (fun j arm ->
            (arm, List.init n_seeds (fun k -> results.((((i * n_arms) + j) * n_seeds) + k))))
          arms ))
    rows

(* ------------------------------------------------------------------ *)
(* The paper matrix: fuzzer x target x repetition.                     *)

type fuzzer = Nyx of Policy.kind | Baseline of Nyx_baselines.Fuzzers.spec

let fuzzer_name = function
  | Nyx p -> Policy.name p
  | Baseline s -> s.Nyx_baselines.Fuzzers.name

let all_fuzzers =
  [
    Baseline Nyx_baselines.Fuzzers.aflnet;
    Baseline Nyx_baselines.Fuzzers.aflnet_no_state;
    Baseline Nyx_baselines.Fuzzers.aflnwe;
    Baseline Nyx_baselines.Fuzzers.aflpp_preeny;
    Nyx Policy.None_;
    Nyx Policy.Balanced;
    Nyx Policy.Aggressive;
  ]

let run_one ?(asan = false) fuzzer entry seed =
  match fuzzer with
  | Nyx policy ->
    Some
      (Campaign.run
         { Campaign.default_config with Campaign.policy; budget_ns; max_execs; seed; asan }
         entry)
  | Baseline spec -> Nyx_baselines.Fuzzers.run spec ~budget_ns ~max_execs ~seed entry

let targets = Nyx_targets.Registry.profuzzbench ()

let target_name e =
  e.Nyx_targets.Registry.target.Nyx_targets.Target.info.Nyx_targets.Target.name

(* Every cell of Tables 1-3 and 5 and Figure 5, keyed by target and
   fuzzer name: None when a rep cannot run (the fuzzer cannot run the
   target), else the reps' results in reverse rep order, the order the
   recorded tables were computed in. *)
let paper_matrix () =
  grid ~rows:targets ~arms:all_fuzzers ~seeds:(List.init reps succ) (fun entry fuzzer seed ->
      run_one fuzzer entry seed)
  |> List.map (fun (entry, cells) ->
         ( target_name entry,
           List.map
             (fun (fuzzer, results) ->
               ( fuzzer_name fuzzer,
                 List.fold_left
                   (fun acc r ->
                     match (acc, r) with Some l, Some r -> Some (r :: l) | _ -> None)
                   (Some []) results ))
             cells ))

let cell matrix fuzzer entry =
  List.assoc (fuzzer_name fuzzer) (List.assoc (target_name entry) matrix)

(* ------------------------------------------------------------------ *)
(* Table 1: crashes found by each fuzzer.                              *)

let interesting_crash (c : Report.crash_report) = c.Report.kind <> "level-solved"

let table1 matrix =
  Printf.printf "\n== Table 1: crashes found in ProFuzzBench targets ==\n";
  Printf.printf "   (x = crash found; (x) = found only with ASan; - = none; n/a = cannot run)\n\n";
  Printf.printf "%-14s" "Target";
  List.iter (fun f -> Printf.printf " %-16s" (fuzzer_name f)) all_fuzzers;
  Printf.printf "\n";
  let rows = ref [] in
  List.iter
    (fun entry ->
      Printf.printf "%-14s" (target_name entry);
      let row =
        List.map
          (fun fuzzer ->
            let mark =
              match cell matrix fuzzer entry with
              | None -> "n/a"
              | Some results ->
                if List.exists (fun r -> List.exists interesting_crash r.Report.crashes) results
                then "x"
                else begin
                  (* The dcmtk footnote: silent corruption is reliably
                     caught only under ASan for snapshot fuzzers. *)
                  match fuzzer with
                  | Nyx _ when target_name entry = "dcmtk" -> (
                    match run_one ~asan:true fuzzer entry 1 with
                    | Some r when List.exists interesting_crash r.Report.crashes -> "(x)"
                    | _ -> "-")
                  | _ -> "-"
                end
            in
            Printf.printf " %-16s" mark;
            mark)
          all_fuzzers
      in
      rows := (target_name entry, row) :: !rows;
      Printf.printf "\n")
    targets;
  write_csv "table1.csv"
    (("target," ^ String.concat "," (List.map fuzzer_name all_fuzzers))
    :: List.rev_map (fun (t, row) -> t ^ "," ^ String.concat "," row) !rows)

(* ------------------------------------------------------------------ *)
(* Table 2: median branch coverage vs AFLNet.                          *)

let median_edges results =
  Nyx_sim.Stats.median (List.map (fun r -> float_of_int r.Report.final_edges) results)

let table2 matrix =
  Printf.printf "\n== Table 2: median branch coverage (vs aflnet; * = p<0.05 Mann-Whitney U) ==\n\n";
  Printf.printf "%-14s %9s" "Target" "aflnet";
  List.iter
    (fun f -> if fuzzer_name f <> "aflnet" then Printf.printf " %15s" (fuzzer_name f))
    all_fuzzers;
  Printf.printf "\n";
  let csv = ref [] in
  List.iter
    (fun entry ->
      let base = cell matrix (Baseline Nyx_baselines.Fuzzers.aflnet) entry in
      match base with
      | None -> ()
      | Some base_results ->
        let base_median = median_edges base_results in
        Printf.printf "%-14s %9.1f" (target_name entry) base_median;
        let row = ref [ Printf.sprintf "%.1f" base_median ] in
        List.iter
          (fun fuzzer ->
            if fuzzer_name fuzzer <> "aflnet" then begin
              match cell matrix fuzzer entry with
              | None ->
                Printf.printf " %15s" "n/a";
                row := "n/a" :: !row
              | Some results ->
                let m = median_edges results in
                let delta = 100.0 *. (m -. base_median) /. Float.max 1.0 base_median in
                let signif =
                  List.length results >= 3
                  && Nyx_sim.Stats.mann_whitney_u
                       (List.map (fun r -> float_of_int r.Report.final_edges) results)
                       (List.map (fun r -> float_of_int r.Report.final_edges) base_results)
                     < 0.05
                in
                let s = Printf.sprintf "%+.1f%%%s" delta (if signif then "*" else "") in
                Printf.printf " %15s" s;
                row := s :: !row
            end)
          all_fuzzers;
        Printf.printf "\n";
        csv := (target_name entry ^ "," ^ String.concat "," (List.rev !row)) :: !csv)
    targets;
  write_csv "table2.csv" (List.rev !csv)

(* ------------------------------------------------------------------ *)
(* Table 3: throughput (executions per virtual second).                *)

let table3 matrix =
  Printf.printf "\n== Table 3: test throughput (execs per virtual second, mean +/- stddev) ==\n\n";
  Printf.printf "%-14s" "Target";
  List.iter (fun f -> Printf.printf " %18s" (fuzzer_name f)) all_fuzzers;
  Printf.printf "\n";
  let csv = ref [] in
  List.iter
    (fun entry ->
      Printf.printf "%-14s" (target_name entry);
      let row = ref [] in
      List.iter
        (fun fuzzer ->
          match cell matrix fuzzer entry with
          | None ->
            Printf.printf " %18s" "-";
            row := "-" :: !row
          | Some results ->
            let rates = List.map (fun r -> r.Report.execs_per_sec) results in
            let s =
              Printf.sprintf "%.1f +/- %.1f" (Nyx_sim.Stats.mean rates)
                (Nyx_sim.Stats.stddev rates)
            in
            Printf.printf " %18s" s;
            row := s :: !row)
        all_fuzzers;
      Printf.printf "\n";
      csv := (target_name entry ^ "," ^ String.concat "," (List.rev !row)) :: !csv)
    targets;
  write_csv "table3.csv" (List.rev !csv)

(* ------------------------------------------------------------------ *)
(* Table 5: time to equal coverage.                                    *)

let table5 matrix =
  Printf.printf "\n== Table 5: how much faster Nyx-Net reaches AFLNet's final coverage ==\n\n";
  Printf.printf "%-14s %18s %12s %12s %12s\n" "Target" "aflnet final time" "nyx-none"
    "balanced" "aggressive";
  let csv = ref [] in
  List.iter
    (fun entry ->
      match cell matrix (Baseline Nyx_baselines.Fuzzers.aflnet) entry with
      | None -> ()
      | Some base_results ->
        let base = Campaign.median_result base_results in
        let final_cov = float_of_int base.Report.final_edges in
        let final_time =
          Option.value ~default:base.Report.virtual_ns
            (Nyx_sim.Stats.Timeline.first_time_reaching base.Report.timeline final_cov)
        in
        let speedup policy =
          match cell matrix (Nyx policy) entry with
          | None -> "-"
          | Some results -> (
            let r = Campaign.median_result results in
            match Nyx_sim.Stats.Timeline.first_time_reaching r.Report.timeline final_cov with
            | None -> "-"
            | Some t -> Printf.sprintf "%.0fx" (float_of_int final_time /. float_of_int (max 1 t)))
        in
        let n = speedup Policy.None_
        and b = speedup Policy.Balanced
        and a = speedup Policy.Aggressive in
        Printf.printf "%-14s %18s %12s %12s %12s\n" (target_name entry)
          (Format.asprintf "%a" Nyx_sim.Clock.pp_duration final_time)
          n b a;
        csv := Printf.sprintf "%s,%d,%s,%s,%s" (target_name entry) final_time n b a :: !csv)
    targets;
  write_csv "table5.csv" (List.rev !csv)

(* ------------------------------------------------------------------ *)
(* Figure 5: median coverage over time.                                *)

let fig5 matrix =
  Printf.printf "\n== Figure 5: coverage over time (CSV per target) ==\n";
  List.iter
    (fun entry ->
      let times = List.init 60 (fun i -> (i + 1) * (budget_ns / 60)) in
      let series =
        List.filter_map
          (fun fuzzer ->
            match cell matrix fuzzer entry with
            | None -> None
            | Some results ->
              let timelines = List.map (fun r -> r.Report.timeline) results in
              Some (fuzzer_name fuzzer, Nyx_sim.Stats.Timeline.median_across timelines times))
          all_fuzzers
      in
      let header = "time_s," ^ String.concat "," (List.map fst series) in
      let lines =
        List.mapi
          (fun i t ->
            let vals =
              List.map
                (fun (_, pts) ->
                  let _, v = List.nth pts i in
                  Printf.sprintf "%.0f" v)
                series
            in
            Printf.sprintf "%.2f,%s" (float_of_int t /. 1e9) (String.concat "," vals))
          times
      in
      write_csv (Printf.sprintf "fig5_%s.csv" (target_name entry)) (header :: lines))
    targets

(* ------------------------------------------------------------------ *)
(* Table 4: Super Mario time-to-solve.                                 *)

let mario_reps = 3
let mario_budget = 2 * 3_600_000_000_000 (* 2 virtual hours per attempt *)

let mario_entry level_name =
  let level = Option.get (Nyx_mario.Level.find level_name) in
  {
    Nyx_targets.Registry.target = Nyx_mario.Mario_target.target level;
    seeds = Nyx_mario.Mario_target.seeds level;
  }

let table4 () =
  Printf.printf "\n== Table 4: Super Mario time to solve (median of %d; virtual time) ==\n\n"
    mario_reps;
  Printf.printf "%-6s %14s %14s %14s %14s %10s\n" "Level" "ijon" "nyx-none" "balanced"
    "aggressive" "speedup";
  let nyx policy entry seed =
    Some
      (Campaign.run
         {
           Campaign.default_config with
           Campaign.policy;
           budget_ns = mario_budget;
           max_execs = 150_000;
           seed;
           stop_on_solve = true;
           sample_interval_ns = 10_000_000_000;
         }
         entry)
  in
  let ijon entry seed =
    Nyx_baselines.Fuzzers.ijon ~budget_ns:mario_budget ~max_execs:150_000 ~seed entry
  in
  let arms =
    [
      ("ijon", ijon);
      ("none", nyx Policy.None_);
      ("balanced", nyx Policy.Balanced);
      ("aggressive", nyx Policy.Aggressive);
    ]
  in
  let levels =
    grid ~rows:(mario_levels ()) ~arms ~seeds:(List.init mario_reps succ)
      (fun level (_, runner) seed ->
        Option.bind (runner (mario_entry level) seed) (fun r -> r.Report.solved_ns))
  in
  let fmt (median, solved) =
    if solved = 0 then "-"
    else begin
      let s = Format.asprintf "%a" Nyx_sim.Clock.pp_duration (int_of_float median) in
      if solved < mario_reps then Printf.sprintf "%s %d/%d" s solved mario_reps else s
    end
  in
  let row (level, arm_times) =
    (* Per arm: the median time of the solving reps, and how many solved. *)
    let cells =
      List.map
        (fun ((name, _), times) ->
          let solved = List.filter_map Fun.id times in
          (name, (Nyx_sim.Stats.median (List.map float_of_int solved), List.length solved)))
        arm_times
    in
    let ijon_t, ijon_solved = List.assoc "ijon" cells in
    let best =
      List.fold_left
        (fun acc (name, (t, solved)) ->
          if name <> "ijon" && solved > 0 then
            match acc with Some bt when bt <= t -> acc | _ -> Some t
          else acc)
        None cells
    in
    let speedup =
      match best with
      | Some t when ijon_solved > 0 && t > 0.0 -> Printf.sprintf "(%.1fx)" (ijon_t /. t)
      | _ -> ""
    in
    let cols = List.map (fun (_, c) -> fmt c) cells in
    Printf.printf "%-6s%s %10s\n%!" level
      (String.concat "" (List.map (Printf.sprintf " %14s") cols))
      speedup;
    String.concat "," ((level :: cols) @ [ speedup ])
  in
  write_csv "table4.csv"
    ("level,ijon,nyx-none,nyx-balanced,nyx-aggressive,speedup" :: List.map row levels)

(* ------------------------------------------------------------------ *)
(* Figure 6: incremental-snapshot create/restore vs dirty pages.       *)

let dirty_n_pages vm rng n =
  let pages = Nyx_vm.Memory.num_pages vm.Nyx_vm.Vm.mem in
  let seen = Hashtbl.create n in
  let rec pick () =
    let p = 1 + Nyx_sim.Rng.int rng (pages - 1) in
    if Hashtbl.mem seen p then pick () else (Hashtbl.replace seen p (); p)
  in
  for _ = 1 to n do
    Nyx_vm.Memory.write_u8 vm.Nyx_vm.Vm.mem (pick () * Nyx_vm.Page.size) 1
  done

let fig6_engine config n =
  (* Nyx-Net: dirty n pages, take an incremental snapshot, dirty n pages
     again, restore — the paper's measurement loop. *)
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create ~config clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  let eng = Nyx_snapshot.Engine.create vm aux in
  let rng = Nyx_sim.Rng.create 42 in
  dirty_n_pages vm rng n;
  let t0 = Nyx_sim.Clock.now_ns clock in
  Nyx_snapshot.Engine.take_incremental eng;
  let create_ns = Nyx_sim.Clock.now_ns clock - t0 in
  dirty_n_pages vm rng n;
  let t1 = Nyx_sim.Clock.now_ns clock in
  Nyx_snapshot.Engine.restore eng;
  let restore_ns = Nyx_sim.Clock.now_ns clock - t1 in
  (create_ns, restore_ns)

let fig6_agamotto config n =
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create ~config clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  let ag = Nyx_snapshot.Agamotto.create vm aux in
  let rng = Nyx_sim.Rng.create 42 in
  dirty_n_pages vm rng n;
  let t0 = Nyx_sim.Clock.now_ns clock in
  let cp = Nyx_snapshot.Agamotto.checkpoint ag in
  let create_ns = Nyx_sim.Clock.now_ns clock - t0 in
  dirty_n_pages vm rng n;
  let t1 = Nyx_sim.Clock.now_ns clock in
  Nyx_snapshot.Agamotto.restore ag cp;
  let restore_ns = Nyx_sim.Clock.now_ns clock - t1 in
  (create_ns, restore_ns)

let fig6 () =
  Printf.printf
    "\n== Figure 6: incremental snapshot create/restore cost vs dirty pages ==\n";
  Printf.printf "   (virtual microseconds; VM sizes match the paper's page counts)\n\n";
  Printf.printf "%-10s %-8s %15s %15s %15s %15s\n" "vm" "pages" "nyx create" "nyx restore"
    "agamotto create" "agamotto restore";
  let csv = ref [ "vm,n,nyx_create_us,nyx_restore_us,aga_create_us,aga_restore_us" ] in
  List.iter
    (fun (vm_name, config) ->
      List.iter
        (fun n ->
          let mem_pages = config.Nyx_vm.Vm.mem_pages in
          if n * 4 > mem_pages * 3 then
            (* The paper's 512MB VM could not allocate 10^5 pages. *)
            Printf.printf "%-10s %-8d %15s %15s %15s %15s\n" vm_name n "-" "-" "-" "-"
          else begin
            let nc, nr = fig6_engine config n in
            let ac, ar = fig6_agamotto config n in
            Printf.printf "%-10s %-8d %15.1f %15.1f %15.1f %15.1f\n%!" vm_name n
              (float_of_int nc /. 1e3) (float_of_int nr /. 1e3) (float_of_int ac /. 1e3)
              (float_of_int ar /. 1e3);
            csv :=
              Printf.sprintf "%s,%d,%.1f,%.1f,%.1f,%.1f" vm_name n (float_of_int nc /. 1e3)
                (float_of_int nr /. 1e3) (float_of_int ac /. 1e3) (float_of_int ar /. 1e3)
              :: !csv
          end)
        [ 10; 100; 1_000; 10_000; 100_000; 500_000 ])
    [ ("512MB", Nyx_vm.Vm.small_config); ("4GB", Nyx_vm.Vm.large_config) ];
  write_csv "fig6.csv" (List.rev !csv)

(* ------------------------------------------------------------------ *)
(* Scalability: shared root snapshots across instances (§5.3).         *)

let scalability () =
  Printf.printf "\n== Scalability: memory for N instances with a shared root snapshot ==\n\n";
  let entry = Option.get (Nyx_targets.Registry.find "lightftp") in
  let spec = Campaign.net_spec () in
  let exec = Executor.create ~net_spec:spec entry.Nyx_targets.Registry.target in
  (* Warm one instance (snapshot sessions included) so the mirror carries
     a typical working set. *)
  let seed = List.hd (Campaign.make_seeds entry spec) in
  ignore (Executor.run_full exec seed);
  let with_snap =
    Nyx_spec.Program.with_snapshot_at seed (Nyx_spec.Program.packet_count seed - 1)
  in
  (match Executor.start_session exec with_snap with
  | Ok session ->
    for _ = 1 to 50 do
      ignore (Executor.run_suffix exec session with_snap)
    done;
    Executor.end_session exec session
  | Error _ -> ());
  (* A real root snapshot owns the guest's whole physical image (the
     paper's VMs are 512MB-4GB); our sparse memory only materializes
     touched pages, so account for the logical image size, which is what
     sharing avoids copying. *)
  let root_logical = Nyx_vm.Vm.fuzz_config.Nyx_vm.Vm.mem_pages * Nyx_vm.Page.size in
  let root_materialized = Executor.root_stored_bytes exec in
  let per_instance = max Nyx_vm.Page.size (Executor.mirror_bytes exec) in
  Printf.printf
    "  logical root image: %d KiB (%d KiB materialized); per-instance private state: %d B\n\n"
    (root_logical / 1024) (root_materialized / 1024) per_instance;
  Printf.printf "%-12s %18s %18s %8s\n" "instances" "shared root (KiB)" "naive copies (KiB)"
    "saving";
  List.iter
    (fun n ->
      let shared = root_logical + (n * per_instance) in
      let naive = n * (root_logical + per_instance) in
      Printf.printf "%-12d %18d %18d %7.1fx\n" n (shared / 1024) (naive / 1024)
        (float_of_int naive /. float_of_int shared))
    [ 1; 8; 80 ];
  let eighty =
    float_of_int (root_logical + (80 * per_instance))
    /. float_of_int (root_logical + per_instance)
  in
  Printf.printf
    "\n  80 instances need %.2fx the memory of one instance (the paper reports ~2x).\n"
    eighty

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let ablation_reuse () =
  Printf.printf
    "\n== Ablation: incremental-snapshot reuse count (exim; 50 = paper's choice) ==\n\n";
  let entry = Option.get (Nyx_targets.Registry.find "exim") in
  let spec = Campaign.net_spec () in
  let exec = Executor.create ~net_spec:spec entry.Nyx_targets.Registry.target in
  let seed = List.hd (Campaign.make_seeds entry spec) in
  ignore (Executor.run_full exec seed);
  let full = Executor.run_full exec seed in
  let with_snap =
    Nyx_spec.Program.with_snapshot_at seed (Nyx_spec.Program.packet_count seed - 1)
  in
  Printf.printf "%-8s %18s %14s\n" "reuses" "ns/exec (amortized)" "vs full exec";
  List.iter
    (fun reuses ->
      match Executor.start_session exec with_snap with
      | Error _ -> ()
      | Ok session ->
        let clock = Executor.clock exec in
        let t0 = Nyx_sim.Clock.now_ns clock in
        for _ = 1 to reuses do
          ignore (Executor.run_suffix exec session with_snap)
        done;
        Executor.end_session exec session;
        (* Amortize the prefix execution over the reuses. *)
        let total = Nyx_sim.Clock.now_ns clock - t0 in
        let per_exec = (total / reuses) + (full.Report.exec_ns / reuses) in
        Printf.printf "%-8d %18d %13.1fx\n%!" reuses per_exec
          (float_of_int full.Report.exec_ns /. float_of_int per_exec))
    [ 1; 5; 10; 25; 50; 100; 250 ]

let ablation_dirty () =
  Printf.printf
    "\n== Ablation: dirty-stack vs full-bitmap-scan enumeration (restore path) ==\n\n";
  Printf.printf "%-10s %15s %18s\n" "dirty" "stack walk (us)" "bitmap scan (us)";
  let config = Nyx_vm.Vm.large_config in
  List.iter
    (fun n ->
      let clock = Nyx_sim.Clock.create () in
      let vm = Nyx_vm.Vm.create ~config clock in
      let rng = Nyx_sim.Rng.create 1 in
      dirty_n_pages vm rng n;
      let dirty = Nyx_vm.Memory.dirty vm.Nyx_vm.Vm.mem in
      let t0 = Nyx_sim.Clock.now_ns clock in
      Nyx_vm.Dirty_log.iter_stack dirty clock ignore;
      let stack_ns = Nyx_sim.Clock.now_ns clock - t0 in
      let t1 = Nyx_sim.Clock.now_ns clock in
      Nyx_vm.Dirty_log.iter_bitmap dirty clock ignore;
      let bitmap_ns = Nyx_sim.Clock.now_ns clock - t1 in
      Printf.printf "%-10d %15.1f %18.1f\n" n (float_of_int stack_ns /. 1e3)
        (float_of_int bitmap_ns /. 1e3))
    [ 10; 100; 1_000; 10_000; 100_000; 1_000_000 ]

let ablation_boundary () =
  Printf.printf
    "\n== Ablation: packet-boundary emulation on/off (seed replay as one burst) ==\n";
  Printf.printf "   (\"a frightening amount of servers assume one recv = one packet\" - section 3.3)\n\n";
  Printf.printf "%-14s %12s %12s\n" "target" "boundaries" "coalesced";
  List.iter
    (fun name ->
      let entry = Option.get (Nyx_targets.Registry.find name) in
      (* Deliver a whole seed session in one burst: with boundary emulation
         each send is one recv; without it, queued packets coalesce into a
         single read, as a real TCP stack is allowed to do. *)
      let run boundaries =
        let clock = Nyx_sim.Clock.create () in
        let vm = Nyx_vm.Vm.create clock in
        let net = Nyx_netemu.Net.create ~boundaries clock in
        let ctx = Nyx_targets.Ctx.of_vm ~net vm in
        let rt = Nyx_targets.Target.boot entry.Nyx_targets.Registry.target ctx in
        Nyx_targets.Target.pump rt;
        (match Nyx_netemu.Net.connect_peer net
                 ~port:entry.Nyx_targets.Registry.target.Nyx_targets.Target.info
                        .Nyx_targets.Target.port
         with
        | Some flow ->
          Nyx_targets.Target.pump rt;
          List.iter
            (fun packets ->
              List.iter (fun p -> Nyx_netemu.Net.send_peer net flow p) packets)
            entry.Nyx_targets.Registry.seeds;
          (try Nyx_targets.Target.pump rt with Nyx_targets.Ctx.Crash _ -> ())
        | None -> ());
        Nyx_targets.Coverage.edge_count ctx.Nyx_targets.Ctx.cov
      in
      Printf.printf "%-14s %12d %12d\n%!" name (run true) (run false))
    [ "lightftp"; "exim"; "bftpd"; "proftpd" ]

let ablation_remirror () =
  Printf.printf "\n== Ablation: re-mirror interval vs mirror accumulation ==\n\n";
  Printf.printf "%-10s %16s %12s\n" "interval" "mirror pages" "remirrors";
  List.iter
    (fun interval ->
      let clock = Nyx_sim.Clock.create () in
      let vm = Nyx_vm.Vm.create clock in
      let aux = Nyx_snapshot.Aux_state.create () in
      let eng = Nyx_snapshot.Engine.create ~remirror_interval:interval vm aux in
      let rng = Nyx_sim.Rng.create 7 in
      for _ = 1 to 500 do
        (* Each round dirties a random small working set. *)
        dirty_n_pages vm rng (1 + Nyx_sim.Rng.int rng 8);
        Nyx_snapshot.Engine.take_incremental eng;
        Nyx_snapshot.Engine.restore eng;
        Nyx_snapshot.Engine.restore_root eng
      done;
      let stats = Nyx_snapshot.Engine.stats eng in
      Printf.printf "%-10d %16d %12d\n" interval
        (Nyx_snapshot.Engine.mirror_pages eng)
        stats.Nyx_snapshot.Engine.remirrors)
    [ 10; 50; 200; 2000 ]



let ablation_typed_spec () =
  Printf.printf
    "\n== Ablation: raw-packet spec vs typed spec (time to the IPC use-after-free) ==\n\n";
  let entry = Option.get (Nyx_targets.Registry.find "firefox-ipc") in
  let cfg seed =
    {
      Campaign.default_config with
      Campaign.budget_ns = 120_000_000_000;
      max_execs = 40_000;
      seed;
      sample_interval_ns = 1_000_000_000;
    }
  in
  let time_to_uaf r =
    List.find_map
      (fun c ->
        if c.Report.kind = "use-after-free" then Some c.Report.found_ns else None)
      r.Report.crashes
  in
  Printf.printf "%-6s %16s %8s %16s %8s\n" "seed" "raw UAF" "edges" "typed UAF" "edges";
  List.iter
    (fun seed ->
      let raw = Campaign.run (cfg seed) entry in
      let ts = Nyx_targets.Ipc_spec.create () in
      let typed =
        Campaign.run
          ~seeds:[ Nyx_targets.Ipc_spec.seed ts ]
          ~custom:(Nyx_targets.Ipc_spec.handler ts) (cfg seed) entry
      in
      let fmt = function
        | Some t -> Format.asprintf "%a" Nyx_sim.Clock.pp_duration t
        | None -> "-"
      in
      Printf.printf "%-6d %16s %8d %16s %8d\n%!" seed (fmt (time_to_uaf raw))
        raw.Report.final_edges
        (fmt (time_to_uaf typed))
        typed.Report.final_edges)
    [ 1; 2; 3 ]


(* ------------------------------------------------------------------ *)
(* Case studies (§5.4 MySQL client, §5.5 Lighttpd, §5.6 Firefox IPC).  *)

let case_studies () =
  Printf.printf "\n== Case studies: the bugs of sections 5.4-5.6 ==\n\n";
  Printf.printf "%-14s %-6s %-18s %14s %10s\n" "target" "asan" "bug" "found at" "execs";
  List.iter
    (fun (name, asan, expected_kind) ->
      let entry = Option.get (Nyx_targets.Registry.find name) in
      let cfg =
        {
          Campaign.default_config with
          Campaign.budget_ns = 120_000_000_000;
          max_execs = 60_000;
          asan;
          sample_interval_ns = 1_000_000_000;
        }
      in
      let r = Campaign.run cfg entry in
      match
        List.find_opt (fun c -> c.Report.kind = expected_kind) r.Report.crashes
      with
      | Some c ->
        Printf.printf "%-14s %-6b %-18s %14s %10d\n%!" name asan expected_kind
          (Format.asprintf "%a" Nyx_sim.Clock.pp_duration c.Report.found_ns)
          c.Report.found_exec
      | None ->
        Printf.printf "%-14s %-6b %-18s %14s %10d\n%!" name asan expected_kind "-"
          r.Report.execs)
    [
      ("mysql-client", true, "asan-heap-oob");
      ("mysql-client", false, "oob-read");
      ("lighttpd", false, "alloc-underflow");
      ("firefox-ipc", true, "use-after-free");
    ]

(* ------------------------------------------------------------------ *)
(* "Faster than light": 52 parallel instances vs a flawless speedrun.  *)

let faster_than_light () =
  Printf.printf
    "\n== Faster than light: 52-instance fleet vs a 60-FPS speedrun (level 1-1) ==\n\n";
  let level = Option.get (Nyx_mario.Level.find "1-1") in
  let speedrun_s = float_of_int (Nyx_mario.Level.speedrun_frames level) /. 60.0 in
  let config =
    {
      Campaign.default_config with
      Campaign.budget_ns = 600_000_000_000;
      max_execs = 100_000;
      stop_on_solve = true;
      sample_interval_ns = 10_000_000_000;
    }
  in
  let fleet = Fleet.run ~instances:52 ~config (mario_entry "1-1") in
  Printf.printf "  flawless speedrun at 60 FPS:    %.2f s (%d frames)\n" speedrun_s
    (Nyx_mario.Level.speedrun_frames level);
  (match fleet.Fleet.first_solve_ns with
  | Some t ->
    let solve_s = float_of_int t /. 1e9 in
    Printf.printf "  first fleet solve (52 cores):   %.2f s  (%d/%d instances solved)\n"
      solve_s fleet.Fleet.solves fleet.Fleet.instances;
    Printf.printf "  => %s: the fuzzer finds a solution %s the level can be played once.\n"
      (if solve_s < speedrun_s then "FASTER THAN LIGHT" else "slower than light")
      (if solve_s < speedrun_s then "before" else "after")
  | None -> Printf.printf "  fleet did not solve within the budget\n")

(* ------------------------------------------------------------------ *)
(* Parallel smoke: NYX_DOMAINS scaling gate for the shared-corpus fleet.

   For each fleet size N in {2, 4} the synced fleet runs twice — once on
   1 domain, once on N — and must produce bit-identical deterministic
   results. Speedup is the fleet's deterministic scaling model,
   work_ns / makespan_ns (per-epoch instance segments list-scheduled
   onto N workers; see Fleet's mli): reproducible on any host, honest
   about stragglers and sync charges. Real wall execs/s for both runs
   ride along as informational columns. A dedup experiment then compares
   the synced fleet against an observer fleet (same epoch stepping, no
   imports): execs needed to reach a full-budget sequential campaign's
   coverage frontier. *)

let fleet_core (o : Fleet.outcome) =
  ( o.Fleet.instances,
    o.Fleet.first_solve_ns,
    o.Fleet.solves,
    o.Fleet.total_execs,
    o.Fleet.restarts,
    o.Fleet.quarantined,
    o.Fleet.union_edges,
    o.Fleet.sync_epochs,
    o.Fleet.work_ns )

let same_fleet a b =
  fleet_core a = fleet_core b
  && List.length a.Fleet.results = List.length b.Fleet.results
  && List.for_all2 Report.same_deterministic a.Fleet.results b.Fleet.results

(* Fraction of fleet virtual time spent in the corpus-sync phase,
   summed over the per-instance profiles. *)
let sync_share (o : Fleet.outcome) =
  let total = ref 0 and sync = ref 0 in
  List.iter
    (fun r ->
      match r.Report.phase_profile with
      | None -> ()
      | Some s ->
        total := !total + s.Nyx_obs.Profile.total_virtual_ns;
        List.iter
          (fun e ->
            if e.Nyx_obs.Profile.phase = Nyx_obs.Profile.Corpus_sync then
              sync := !sync + e.Nyx_obs.Profile.virtual_ns)
          s.Nyx_obs.Profile.entries)
    o.Fleet.results;
  if !total = 0 then 0.0 else float_of_int !sync /. float_of_int !total

(* First sync epoch whose union map reaches [frontier] edges, as
   (epoch ordinal, fleet execs spent by then). *)
let execs_to_frontier (o : Fleet.outcome) frontier =
  List.find_map
    (fun (e : Fleet.sync_epoch) ->
      if e.Fleet.se_union_edges >= frontier then
        Some (e.Fleet.se_epoch, e.Fleet.se_total_execs)
      else None)
    o.Fleet.sync_epochs

let parallel_smoke () =
  Printf.printf "\n== Parallel smoke: shared-corpus fleet scaling (NYX_DOMAINS gate) ==\n\n";
  let budget_s = Option.value ~default:10 !flag_budget_s in
  let sync_ms = Option.value ~default:250 !flag_sync_ms in
  let budget_ns = budget_s * 1_000_000_000 in
  let sync_ns = sync_ms * 1_000_000 in
  let config =
    {
      Campaign.default_config with
      Campaign.budget_ns;
      max_execs = 200_000;
      policy = Policy.Balanced;
      seed = 1;
    }
  in
  let eps (o : Fleet.outcome) =
    float_of_int o.Fleet.total_execs /. Float.max 1e-9 o.Fleet.wall_s
  in
  let targets = [ "echo"; "lightftp" ] in
  Printf.printf "  %ds virtual budget, sync every %dms, targets: %s\n\n" budget_s
    sync_ms (String.concat " " targets);
  let scaling =
    List.map
      (fun n ->
        Printf.printf "  -- fleet size N=%d: 1 domain vs %d domains --\n" n n;
        Printf.printf "%-12s %8s %12s %12s %12s %12s %8s %10s\n" "target" "speedup"
          "seq wall (s)" "par wall (s)" "seq execs/s" "par execs/s" "sync" "identical";
        let rows =
          List.map
            (fun name ->
              let entry = Option.get (Nyx_targets.Registry.find name) in
              let seq =
                Fleet.run ~instances:n ~domains:1 ~sync_ns ~profile:true ~config entry
              in
              let par =
                Fleet.run ~instances:n ~domains:n ~sync_ns ~profile:true ~config entry
              in
              let identical = same_fleet seq par in
              let speedup =
                float_of_int par.Fleet.work_ns
                /. float_of_int (max 1 par.Fleet.makespan_ns)
              in
              let share = sync_share par in
              Printf.printf "%-12s %7.2fx %12.3f %12.3f %12.0f %12.0f %7.2f%% %10b\n%!"
                name speedup seq.Fleet.wall_s par.Fleet.wall_s (eps seq) (eps par)
                (100.0 *. share) identical;
              (name, seq, par, speedup, share, identical))
            targets
        in
        let mean =
          List.fold_left (fun acc (_, _, _, s, _, _) -> acc +. s) 0.0 rows
          /. float_of_int (List.length rows)
        in
        Printf.printf "  N=%d mean speedup: %.2fx (ideal %d.00x)\n\n" n mean n;
        (n, rows, mean))
      [ 2; 4 ]
  in
  let all_identical =
    List.for_all
      (fun (_, rows, _) -> List.for_all (fun (_, _, _, _, _, i) -> i) rows)
      scaling
  in
  (* Corpus dedup: on lightftp, how many fleet execs until the union map
     reaches the coverage a single full-budget sequential campaign ends
     at? The observer fleet (sync_import:false) is the controlled
     baseline: identical epoch stepping, no sharing. *)
  let dedup_n = 4 in
  let dedup_target = "lightftp" in
  let entry = Option.get (Nyx_targets.Registry.find dedup_target) in
  let frontier = (Campaign.run config entry).Report.final_edges in
  let synced =
    match List.assoc_opt dedup_n (List.map (fun (n, r, m) -> (n, (r, m))) scaling) with
    | Some (rows, _) ->
      let _, _, par, _, _, _ =
        List.find (fun (name, _, _, _, _, _) -> name = dedup_target) rows
      in
      par
    | None -> Fleet.run ~instances:dedup_n ~domains:1 ~sync_ns ~config entry
  in
  let observer =
    Fleet.run ~instances:dedup_n ~domains:1 ~sync_ns ~sync_import:false ~config entry
  in
  let synced_hit = execs_to_frontier synced frontier in
  let observer_hit = execs_to_frontier observer frontier in
  let pp_hit = function
    | Some (epoch, execs) -> Printf.sprintf "%d execs (epoch %d)" execs epoch
    | None -> "not reached"
  in
  Printf.printf
    "  dedup (%s, N=%d): sequential frontier %d edges\n\
    \    synced fleet:   %s\n\
    \    observer fleet: %s\n\n"
    dedup_target dedup_n frontier (pp_hit synced_hit) (pp_hit observer_hit);
  let mean_speedup =
    match List.rev scaling with (_, _, m) :: _ -> m | [] -> 0.0
  in
  Printf.printf "  mean speedup %.2fx at N=4; parallel==sequential: %b\n" mean_speedup
    all_identical;
  let hit_json = function
    | Some (epoch, execs) ->
      Obj [ ("reached", Bool true); ("execs", Int execs); ("epoch", Int epoch) ]
    | None -> Obj [ ("reached", Bool false) ]
  in
  let row_json (name, seq, par, speedup, share, identical) =
    Obj
      [ ("target", Str name); ("speedup", Float speedup); ("work_ns", Int par.Fleet.work_ns);
        ("makespan_ns", Int par.Fleet.makespan_ns); ("seq_wall_s", Float seq.Fleet.wall_s);
        ("par_wall_s", Float par.Fleet.wall_s); ("seq_execs_per_wall_s", Float (eps seq));
        ("par_execs_per_wall_s", Float (eps par)); ("sync_share", Float share);
        ("identical", Bool identical) ]
  in
  let scaling_json (n, rows, mean) =
    Obj [ ("n", Int n); ("mean_speedup", Float mean); ("targets", Arr (List.map row_json rows)) ]
  in
  write_json "BENCH_parallel.json"
    [ ("virtual_budget_s", Int budget_s); ("sync_interval_ms", Int sync_ms);
      ("scaling", Arr (List.map scaling_json scaling));
      ( "dedup",
        Obj
          [ ("target", Str dedup_target); ("instances", Int dedup_n);
            ("sequential_frontier_edges", Int frontier); ("synced", hit_json synced_hit);
            ("observer", hit_json observer_hit) ] );
      ("mean_speedup", Float mean_speedup);
      ("parallel_identical_to_sequential", Bool all_identical) ];
  if not all_identical then
    failwith "parallel_smoke: fleet results differ across domain counts";
  match Sys.getenv_opt "NYX_BENCH_SCALE_GATE" with
  | None -> ()
  | Some g -> (
    match float_of_string_opt g with
    | None -> failwith ("parallel_smoke: bad NYX_BENCH_SCALE_GATE " ^ g)
    | Some gate ->
      List.iter
        (fun (n, _, mean) ->
          if mean < gate *. float_of_int n then
            failwith
              (Printf.sprintf
                 "parallel_smoke: N=%d mean speedup %.2fx below gate %.2f*N=%.2fx" n
                 mean gate (gate *. float_of_int n)))
        scaling)

(* ------------------------------------------------------------------ *)
(* Hotpath: O(touched) journaled coverage + O(1) corpus scheduling vs
   the before-style O(map)/O(corpus) paths, on a coverage-bound
   fixed-seed smoke campaign. Emits BENCH_hotpath.json.                *)

(* The pre-change corpus, reproduced for the before gear: reversed list,
   List.nth indexing, per-call frequency-table rebuild, per-round
   programs-array reallocation. *)
module Before_corpus = struct
  type entry = { id : int; program : Nyx_spec.Program.t; state_code : int }
  type t = { mutable rev_entries : entry list; mutable count : int }

  let create () = { rev_entries = []; count = 0 }

  let add t ~program ~state_code =
    let entry = { id = t.count; program; state_code } in
    t.rev_entries <- entry :: t.rev_entries;
    t.count <- t.count + 1;
    entry

  let nth_newest t i = List.nth t.rev_entries i

  let schedule t rng =
    if Nyx_sim.Rng.bool rng then nth_newest t (Nyx_sim.Rng.int rng t.count)
    else nth_newest t (Nyx_sim.Rng.int rng (max 1 (t.count / 4)))

  let programs t =
    Array.of_list (List.map (fun e -> e.program) t.rev_entries)
end

let hotpath () =
  Printf.printf
    "\n== Hotpath: journaled coverage + O(1) scheduling vs full-scan paths ==\n\n";
  let execs = 3_000 in
  let module Cov = Nyx_targets.Coverage in
  let spec = Campaign.net_spec () in
  let program = Nyx_spec.Net_spec.seed_of_packets spec [ Bytes.of_string "x" ] in
  (* One coverage-bound exec: the coverage/corpus bookkeeping of the
     fuzzing hot loop with the target execution itself stripped out, so
     wall-clock measures exactly the mechanical cost this PR attacks.
     Both gears replay identical RNG-driven hit sequences. *)
  let run_campaign ~slow =
    let rng = Nyx_sim.Rng.create 42 in
    let sched_rng = Nyx_sim.Rng.create 43 in
    let cov = Cov.create () in
    let cumulative = Cov.Cumulative.create () in
    let corpus = Corpus.create () in
    let before_corpus = Before_corpus.create () in
    let add prog state_code =
      if slow then ignore (Before_corpus.add before_corpus ~program:prog ~state_code)
      else ignore (Corpus.add corpus ~program:prog ~exec_ns:0 ~discovered_ns:0 ~state_code)
    in
    add program 0;
    let edges = ref 0 and corpus_size = ref 1 and splice_picks = ref 0 in
    let t0 = Nyx_parallel.Wall.now_s () in
    for _ = 1 to execs do
      (* Scheduling round: pick an entry, snapshot the splice pool. *)
      let progs =
        if slow then begin
          ignore (Before_corpus.schedule before_corpus sched_rng);
          Before_corpus.programs before_corpus
        end
        else begin
          ignore (Corpus.schedule corpus sched_rng);
          Corpus.programs corpus
        end
      in
      splice_picks := !splice_picks + Array.length progs;
      (* Execution: reset, replay a touched-set of edges. *)
      if slow then Cov.reset_slow cov else Cov.reset cov;
      let touched = 32 + Nyx_sim.Rng.int rng 96 in
      for _ = 1 to touched do
        Cov.hit cov (Nyx_sim.Rng.int rng 4096)
      done;
      (* Triage: merge, count, grow the corpus on novelty. *)
      let novel =
        if slow then Cov.Cumulative.merge_slow cumulative cov
        else Cov.Cumulative.merge cumulative cov
      in
      edges :=
        (if slow then Cov.Cumulative.edge_count_slow cumulative
         else Cov.Cumulative.edge_count cumulative);
      if novel then begin
        add program (Nyx_sim.Rng.int rng 8);
        incr corpus_size
      end
    done;
    let wall = Nyx_parallel.Wall.now_s () -. t0 in
    (wall, !edges, !corpus_size, !splice_picks)
  in
  let before_wall, before_edges, before_corpus_n, before_picks =
    run_campaign ~slow:true
  in
  let after_wall, after_edges, after_corpus_n, after_picks =
    run_campaign ~slow:false
  in
  if
    before_edges <> after_edges
    || before_corpus_n <> after_corpus_n
    || before_picks <> after_picks
  then failwith "hotpath: before/after gears diverged — semantics changed";
  let eps w = float_of_int execs /. Float.max 1e-9 w in
  let npe w = w *. 1e9 /. float_of_int execs in
  let speedup = eps after_wall /. eps before_wall in
  Printf.printf "  %d coverage-bound execs, identical results both gears\n" execs;
  Printf.printf "  (final edges %d, corpus %d)\n\n" after_edges after_corpus_n;
  Printf.printf "%-10s %14s %14s\n" "gear" "execs/sec" "ns/exec";
  Printf.printf "%-10s %14.0f %14.0f\n" "before" (eps before_wall) (npe before_wall);
  Printf.printf "%-10s %14.0f %14.0f\n" "after" (eps after_wall) (npe after_wall);
  Printf.printf "  speedup: %.1fx\n\n" speedup;
  (* Per-phase split: time each hot-loop primitive in isolation. *)
  let phase_iters = 2_000 in
  let time f =
    let t0 = Nyx_parallel.Wall.now_s () in
    for _ = 1 to phase_iters do
      f ()
    done;
    (Nyx_parallel.Wall.now_s () -. t0) *. 1e9 /. float_of_int phase_iters
  in
  let touch cov rng =
    for _ = 1 to 80 do
      Cov.hit cov (Nyx_sim.Rng.int rng 4096)
    done
  in
  let reset_phase slow =
    let cov = Cov.create () in
    let rng = Nyx_sim.Rng.create 5 in
    time (fun () ->
        touch cov rng;
        if slow then Cov.reset_slow cov else Cov.reset cov)
  in
  let merge_phase slow =
    let cov = Cov.create () in
    let rng = Nyx_sim.Rng.create 5 in
    touch cov rng;
    let cumulative = Cov.Cumulative.create () in
    time (fun () ->
        ignore
          (if slow then Cov.Cumulative.merge_slow cumulative cov
           else Cov.Cumulative.merge cumulative cov);
        ignore
          (if slow then Cov.Cumulative.edge_count_slow cumulative
           else Cov.Cumulative.edge_count cumulative))
  in
  let schedule_phase slow =
    let rng = Nyx_sim.Rng.create 5 in
    let corpus = Corpus.create () in
    let before_corpus = Before_corpus.create () in
    for i = 0 to 511 do
      ignore (Corpus.add corpus ~program ~exec_ns:0 ~discovered_ns:0 ~state_code:(i mod 8));
      ignore (Before_corpus.add before_corpus ~program ~state_code:(i mod 8))
    done;
    time (fun () ->
        if slow then begin
          ignore (Before_corpus.schedule before_corpus rng);
          ignore (Before_corpus.programs before_corpus)
        end
        else begin
          ignore (Corpus.schedule corpus rng);
          ignore (Corpus.programs corpus)
        end)
  in
  let phases =
    [
      ("reset", reset_phase true, reset_phase false);
      ("merge", merge_phase true, merge_phase false);
      ("schedule", schedule_phase true, schedule_phase false);
    ]
  in
  Printf.printf "%-10s %14s %14s %9s\n" "phase" "before ns" "after ns" "ratio";
  List.iter
    (fun (name, b, a) ->
      Printf.printf "%-10s %14.0f %14.0f %8.1fx\n" name b a (b /. Float.max 1e-9 a))
    phases;
  let gear wall = Obj [ ("execs_per_sec", Float (eps wall)); ("ns_per_exec", Float (npe wall)) ] in
  let phase (name, b, a) = (name, Obj [ ("before", Float b); ("after", Float a) ]) in
  write_json "BENCH_hotpath.json"
    [ ("execs", Int execs); ("identical_results", Bool true); ("final_edges", Int after_edges);
      ("corpus_size", Int after_corpus_n); ("before", gear before_wall);
      ("after", gear after_wall); ("speedup", Float speedup);
      ("phases_ns_per_iter", Obj (List.map phase phases)) ];
  if speedup < 2.0 then failwith "hotpath: expected >= 2x execs/sec on the smoke campaign"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: real wall-clock per table's core loop.   *)

let bechamel_suite () =
  Printf.printf "\n== Bechamel wall-clock micro-benchmarks ==\n\n";
  let open Bechamel in
  let entry = Option.get (Nyx_targets.Registry.find "lightftp") in
  let spec = Campaign.net_spec () in
  let exec = Executor.create ~net_spec:spec entry.Nyx_targets.Registry.target in
  let seed = List.hd (Campaign.make_seeds entry spec) in
  let mk_snapshot_bench config n =
    Test.make
      ~name:(Printf.sprintf "fig6/nyx-create-restore-%d" n)
      (Staged.stage (fun () -> ignore (fig6_engine config n)))
  in
  let tests =
    [
      (* Table 2/3's inner loop: one full Nyx-Net execution. *)
      Test.make ~name:"table2-3/nyx-exec"
        (Staged.stage (fun () -> ignore (Executor.run_full exec seed)));
      (* Table 1's crash path: a crashing execution. *)
      Test.make ~name:"table1/crash-exec"
        (Staged.stage
           (let echo = Option.get (Nyx_targets.Registry.find "echo") in
            let e2 = Executor.create ~net_spec:spec echo.Nyx_targets.Registry.target in
            let boom =
              Nyx_spec.Net_spec.seed_of_packets spec
                [ Bytes.of_string "MODE raw\r\n"; Bytes.of_string "BOOM\r\n" ]
            in
            fun () -> ignore (Executor.run_full e2 boom)));
      (* Table 4's inner loop: a Mario frame burst. *)
      Test.make ~name:"table4/mario-64-frames"
        (Staged.stage
           (let level = Option.get (Nyx_mario.Level.find "1-1") in
            let clock = Nyx_sim.Clock.create () in
            let vm = Nyx_vm.Vm.create clock in
            let net = Nyx_netemu.Net.create clock in
            let ctx = Nyx_targets.Ctx.of_vm ~net vm in
            let game = Nyx_mario.Game.boot ctx level in
            let input = Bytes.make 16 '\x09' in
            fun () -> try Nyx_mario.Game.run_input game input with
              | Nyx_mario.Game.Level_solved _ -> ()));
      (* Figure 6's loops at two dirty-set sizes. *)
      mk_snapshot_bench Nyx_vm.Vm.small_config 100;
      mk_snapshot_bench Nyx_vm.Vm.small_config 1000;
      (* Table 5 derives from timelines: benchmark the query. *)
      Test.make ~name:"table5/timeline-query"
        (Staged.stage
           (let tl = Nyx_sim.Stats.Timeline.create () in
            for i = 0 to 999 do
              Nyx_sim.Stats.Timeline.record tl (i * 1000) (float_of_int i)
            done;
            fun () -> ignore (Nyx_sim.Stats.Timeline.first_time_reaching tl 900.0)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let clock = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ clock ] (Test.make_grouped ~name:"" [ test ]) in
      Hashtbl.iter
        (fun name raws ->
          match
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
              clock raws
          with
          | ols -> (
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.printf "  %-36s %14.1f ns/run\n%!" name est
            | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
          | exception _ -> Printf.printf "  %-36s (analysis failed)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Fault-injection smoke campaign (make faultcheck / CI): every fault
   site armed at a rate high enough to fire hundreds of times, asserting
   the campaign recovers from all of them and stays deterministic.       *)

let faultcheck () =
  Printf.printf "\n== Fault-injection smoke campaign ==\n\n";
  let entry = Option.get (Nyx_targets.Registry.find "echo") in
  let cfg =
    {
      Campaign.default_config with
      Campaign.policy = Policy.Aggressive;
      budget_ns = 8_000_000_000;
      max_execs = 25_000;
      seed = 7;
    }
  in
  let spec = "all:0.02" in
  let faults =
    match Nyx_resilience.Plan.parse_spec spec with
    | Ok sp -> sp
    | Error m -> failwith ("faultcheck: " ^ m)
  in
  let r1 = Campaign.run ~faults cfg entry in
  let r2 = Campaign.run ~faults cfg entry in
  let res =
    match r1.Report.resilience with
    | Some r -> r
    | None -> failwith "faultcheck: faulted campaign returned no resilience block"
  in
  Printf.printf
    "  injected=%d recovered=%d aborted=%d | edges=%d execs=%d corpus=%d\n%!"
    res.Report.faults_injected res.Report.faults_recovered
    res.Report.faults_aborted r1.Report.final_edges r1.Report.execs
    r1.Report.corpus_size;
  (* Supervisor smoke: one instance that always dies must be quarantined
     without taking down the fleet or losing the healthy instances. *)
  let fleet =
    Fleet.run ~instances:3 ~domains:1 ~max_restarts:2
      ~run_instance:(fun c ->
        if c.Campaign.seed = cfg.Campaign.seed + 1000 then
          failwith "faultcheck: injected instance failure"
        else Campaign.run ~faults c entry)
      ~config:cfg entry
  in
  Printf.printf "  fleet: %d survivors, %d restarts, %d quarantined\n%!"
    (List.length fleet.Fleet.results) fleet.Fleet.restarts
    fleet.Fleet.quarantined;
  if res.Report.faults_recovered = 0 then
    failwith "faultcheck: no faults recovered (rate too low?)";
  if res.Report.faults_aborted <> 0 then
    failwith "faultcheck: some injected faults were not recovered";
  if res.Report.faults_recovered <> res.Report.faults_injected then
    failwith "faultcheck: injected/recovered mismatch";
  if not (Report.same_deterministic r1 r2) then
    failwith "faultcheck: same-seed faulted campaigns diverged";
  if fleet.Fleet.quarantined <> 1 || List.length fleet.Fleet.results <> 2 then
    failwith "faultcheck: supervisor did not quarantine exactly the bad instance";
  if fleet.Fleet.restarts <> 2 then
    failwith "faultcheck: supervisor retry budget not honoured";
  (* Peer encoder sites: a peer-mode campaign with every encoder fault
     armed must likewise recover everything — supervised desync recovery
     turns encoder lies into partial results, never campaign aborts. *)
  let peer_entry = Option.get (Nyx_targets.Registry.find "lightftp") in
  let peer_script = Option.get (Nyx_peer.Peer_script.find "lightftp") in
  let peer_faults =
    match Nyx_peer.Peer_fault.parse_spec "all:0.5" with
    | Ok sp -> sp
    | Error m -> failwith ("faultcheck: " ^ m)
  in
  let pr = Campaign.run ~peer:peer_script ~peer_faults cfg peer_entry in
  let pres =
    match pr.Report.resilience with
    | Some r -> r
    | None -> failwith "faultcheck: peer campaign returned no resilience block"
  in
  let pstats =
    match pr.Report.peer with
    | Some p -> p
    | None -> failwith "faultcheck: peer campaign returned no peer block"
  in
  Printf.printf
    "  peer: injected=%d recovered=%d aborted=%d | actions=%d desyncs=%d \
     quarantines=%d\n\
     %!"
    pres.Report.faults_injected pres.Report.faults_recovered
    pres.Report.faults_aborted pstats.Report.peer_actions
    pstats.Report.peer_desyncs pstats.Report.peer_quarantines;
  if pres.Report.faults_recovered = 0 then
    failwith "faultcheck: no peer encoder faults fired (rate too low?)";
  if pres.Report.faults_aborted <> 0 then
    failwith "faultcheck: some peer encoder faults were not recovered";
  write_json "FAULTCHECK.json"
    [ ("target", Str r1.Report.target); ("spec", Str spec);
      ("injected", Int res.Report.faults_injected);
      ("recovered", Int res.Report.faults_recovered);
      ("aborted", Int res.Report.faults_aborted); ("deterministic", Bool true);
      ("edges", Int r1.Report.final_edges); ("execs", Int r1.Report.execs);
      ("fleet_restarts", Int fleet.Fleet.restarts);
      ("fleet_quarantined", Int fleet.Fleet.quarantined);
      ("peer_injected", Int pres.Report.faults_injected);
      ("peer_recovered", Int pres.Report.faults_recovered);
      ("peer_aborted", Int pres.Report.faults_aborted);
      ("peer_desyncs", Int pstats.Report.peer_desyncs);
      ("peer_quarantines", Int pstats.Report.peer_quarantines) ];
  Printf.printf "  faultcheck OK\n%!"

(* ------------------------------------------------------------------ *)
(* Static-vs-dynamic boundary conformance (make statecheck / CI): on
   every registry target, every dynamically observed protocol-state
   boundary must lie inside the static feasible set computed by
   Nyx_analysis.Dataflow — the soundness claim the probe prior rests on.
   Checked over the shipped seeds, deterministic mutants of them, and
   empty-payload variants that specifically exercise the statically-
   inert classification. The residue (feasible indices the probe never
   saw change the hash) is reported as the precision metric. Emits
   STATECHECK.json; any violation is fatal.                             *)

let statecheck () =
  Printf.printf "\n== Static-vs-dynamic boundary conformance (statecheck) ==\n\n";
  let mutants_per_seed = 3 in
  let nspec = Campaign.net_spec () in
  let empty_variant stride p =
    let i = ref 0 in
    let ops =
      Array.map
        (fun (op : Nyx_spec.Program.op) ->
          incr i;
          if !i mod stride = 0 then
            {
              op with
              Nyx_spec.Program.data =
                Array.map (fun _ -> Bytes.empty) op.Nyx_spec.Program.data;
            }
          else op)
        p.Nyx_spec.Program.ops
    in
    { p with Nyx_spec.Program.ops = ops }
  in
  let total_obs = ref 0 and total_feas = ref 0 in
  let total_viol = ref 0 and total_progs = ref 0 in
  let rows =
    List.map
      (fun (entry : Nyx_targets.Registry.entry) ->
        let info = entry.Nyx_targets.Registry.target.Nyx_targets.Target.info in
        let name = info.Nyx_targets.Target.name in
        let udp = info.Nyx_targets.Target.proto = Nyx_netemu.Net.Udp in
        let seeds = Nyx_targets.Registry.seed_programs entry nspec in
        let rng = Nyx_sim.Rng.create 7 in
        let programs =
          List.concat_map
            (fun p ->
              (p :: List.init mutants_per_seed (fun _ -> Nyx_spec.Mutator.mutate rng p))
              @ [ empty_variant 1 p; empty_variant 2 p ])
            seeds
        in
        let exec =
          Executor.create ~net_spec:nspec entry.Nyx_targets.Registry.target
        in
        let observed = ref 0 and feasible_n = ref 0 and violations = ref [] in
        List.iter
          (fun p ->
            let feasible = Nyx_analysis.Dataflow.feasible_boundaries ~udp p in
            let bounds = Executor.state_boundaries exec p in
            observed := !observed + List.length bounds;
            feasible_n := !feasible_n + List.length feasible;
            List.iter
              (fun b -> if not (List.mem b feasible) then violations := b :: !violations)
              bounds)
          programs;
        let residue = !feasible_n - (!observed - List.length !violations) in
        total_obs := !total_obs + !observed;
        total_feas := !total_feas + !feasible_n;
        total_viol := !total_viol + List.length !violations;
        total_progs := !total_progs + List.length programs;
        Printf.printf
          "  %-14s %3d programs | observed %4d  feasible %4d  residue %4d  \
           violations %d\n%!"
          name (List.length programs) !observed !feasible_n residue
          (List.length !violations);
        (name, List.length programs, !observed, !feasible_n, residue,
         List.length !violations))
      (Nyx_targets.Registry.all ())
  in
  let precision =
    if !total_feas = 0 then 1.0
    else float_of_int !total_obs /. float_of_int !total_feas
  in
  Printf.printf
    "\n  %d programs over %d targets: %d observed within %d feasible \
     (precision %.3f), %d violation(s)\n"
    !total_progs (List.length rows) !total_obs !total_feas precision !total_viol;
  let target_json (name, progs, obs, feas, residue, viol) =
    Obj
      [ ("target", Str name); ("programs", Int progs); ("observed", Int obs);
        ("feasible", Int feas); ("residue", Int residue); ("violations", Int viol) ]
  in
  write_json "STATECHECK.json"
    [ ("programs", Int !total_progs); ("observed_boundaries", Int !total_obs);
      ("feasible_boundaries", Int !total_feas);
      ("residue", Int (!total_feas - !total_obs + !total_viol));
      ("precision", Float precision); ("violations", Int !total_viol);
      ("targets", Arr (List.map target_json rows)) ];
  if !total_viol > 0 then
    failwith
      (Printf.sprintf
         "statecheck: %d dynamically observed boundary(ies) outside the static \
          feasible set — the Dataflow inertness classification is unsound"
         !total_viol);
  Printf.printf "  statecheck OK\n%!"

(* ------------------------------------------------------------------ *)
(* The coverage-gate matrices: the paper's Table 2 comparison of fuzzer
   configurations, target by target, under one budget. A matrix runs one
   campaign per (target, arm) from a shared base config; a judge scores
   each target's arms and decides whether the matrix's claim held there;
   the gate fails unless it held on at least num/den of the targets.
   Campaigns are deterministic functions of the config and results merge
   in submission order, so the table, the BENCH file and the verdict are
   the same whatever NYX_DOMAINS says. *)

(* One target's judgement: whether the claim held there, each arm's score
   for the table, and the target's BENCH members after "target". *)
type verdict = { win : bool; cells : string list; row : (string * json) list }

type matrix = {
  file : string;
  title : string;
  config : Campaign.config;  (* seed, budget and exec cap of every campaign *)
  header : (string * json) list;  (* the BENCH file's members before "seed" *)
  targets : string list;
  arms :
    (string * (Campaign.config -> Nyx_targets.Registry.entry -> Report.campaign_result))
    list;
  judge : (string * Report.campaign_result) list -> verdict;  (* arms in order *)
  key : string;  (* BENCH member counting the targets the claim held on *)
  claim : string;
  gate : int * int;  (* (num, den): pass when wins * den >= num * targets *)
  checks : string list -> (string * json) list * (string * string * int) list;
      (* side checks over the targets: their BENCH members and (key, claim,
         wins) tallies, gated like the matrix's own claim *)
}

let run_matrix m =
  let cfg = m.config in
  Printf.printf "\n== %s ==\n\n  seed %d, %ds virtual budget, %d exec cap\n\n" m.title
    cfg.Campaign.seed (cfg.Campaign.budget_ns / 1_000_000_000) cfg.Campaign.max_execs;
  let verdicts =
    grid ~rows:m.targets ~arms:m.arms ~seeds:[ cfg.Campaign.seed ] (fun t (_, run) seed ->
        run { cfg with Campaign.seed } (Option.get (Nyx_targets.Registry.find t)))
    |> List.map (fun (t, arms) ->
           (t, m.judge (List.map (fun ((arm, _), results) -> (arm, List.hd results)) arms)))
  in
  let print_row cells =
    List.iteri (fun i c -> Printf.printf (if i = 0 then "%-13s" else " %18s") c) cells;
    print_newline ()
  in
  print_row (("target" :: List.map fst m.arms) @ [ m.key ]);
  List.iter
    (fun (t, v) -> print_row ((t :: v.cells) @ [ string_of_bool v.win ]))
    verdicts;
  let members, side = m.checks m.targets in
  let tallies =
    (m.key, m.claim, List.length (List.filter (fun (_, v) -> v.win) verdicts)) :: side
  in
  let n = List.length m.targets and num, den = m.gate in
  let rows = List.map (fun (t, v) -> Obj (("target", Str t) :: v.row)) verdicts in
  let top =
    m.header
    @ (("seed", Int cfg.Campaign.seed) :: List.map (fun (key, _, w) -> (key, Int w)) tallies)
    @ (("targets", Arr rows) :: members)
  in
  write_json m.file top;
  List.iter
    (fun (_, claim, wins) ->
      Printf.printf "  %s on %d/%d targets (gate %d/%d)\n%!" claim wins n num den;
      if wins * den < num * n then
        failwith
          (Printf.sprintf "%s: %s on only %d/%d targets (gate requires %d/%d)" m.file
             claim wins n num den))
    tallies

(* The snapshot and mutation matrices race their arms to a coverage
   frontier, the arms' lowest final edge count, which every arm reaches.
   An arm scores the first point of its [clock] timeline at the frontier
   (the clock's final reading if none, impossible by construction). The
   last arm is the challenger: it wins the target when [beats] holds
   between its score and the best rival's. [keys] name the BENCH members
   for the claim, the arm list, an arm and its score. *)
let race ~clock ~show ~beats ~keys:(claim_key, arms_key, arm_key, score_key) ~extra
    results =
  let frontier =
    List.fold_left (fun acc (_, r) -> min acc r.Report.final_edges) max_int results
  in
  let score r =
    let timeline, final = clock r in
    Option.value ~default:final
      (Nyx_sim.Stats.Timeline.first_time_reaching timeline (float_of_int frontier))
  in
  let scores = List.map (fun (_, r) -> score r) results in
  let rivals = List.filteri (fun i _ -> i < List.length scores - 1) scores in
  let challenger = List.nth scores (List.length rivals) in
  let win = beats challenger (List.fold_left min max_int rivals) in
  let arm (name, (r : Report.campaign_result)) =
    Obj
      ([ (arm_key, Str name); (score_key, Int (score r));
         ("final_edges", Int r.Report.final_edges); ("execs", Int r.Report.execs) ]
      @ extra r)
  in
  {
    win;
    cells = List.map show scores;
    row =
      [ ("frontier_edges", Int frontier); (claim_key, Bool win);
        (arms_key, Arr (List.map arm results)) ];
  }

(* Probe-cost ablation: rerun every seed's boundary probe with the
   static feasibility prior (Nyx_analysis.Dataflow) off and on. The
   prior may only skip hashes, never change the result — boundaries
   must match exactly, and prior-on must hash strictly fewer indices
   (it always skips at least the useless hash after the last packet). *)
let probe_prior targets =
  let nspec = Campaign.net_spec () in
  let probe n =
    let entry = Option.get (Nyx_targets.Registry.find n) in
    let target = entry.Nyx_targets.Registry.target in
    let udp =
      target.Nyx_targets.Target.info.Nyx_targets.Target.proto = Nyx_netemu.Net.Udp
    in
    let exec = Executor.create ~net_spec:nspec target in
    let seeds = Nyx_targets.Registry.seed_programs entry nspec in
    let hashes (dense, prior) p =
      let feasible = Nyx_analysis.Dataflow.feasible_boundaries ~udp p in
      let b_off = Executor.state_boundaries exec p in
      let h_off = Executor.last_probe_hashed exec in
      let b_on = Executor.state_boundaries ~feasible exec p in
      if b_off <> b_on then
        failwith ("snapshot_matrix: static prior changed the probe result on " ^ n);
      (dense + h_off, prior + Executor.last_probe_hashed exec)
    in
    let dense, prior = List.fold_left hashes (0, 0) seeds in
    ( prior < dense,
      Obj
        [ ("target", Str n); ("programs", Int (List.length seeds));
          ("hashes_dense", Int dense); ("hashes_prior", Int prior);
          ("boundaries_identical", Bool true) ] )
  in
  let rows = List.map probe targets in
  ( [ ("probe_prior", Arr (List.map snd rows)) ],
    [ ( "prior_strictly_fewer",
        "the static prior hashes strictly fewer indices (boundaries identical)",
        List.length (List.filter fst rows) ) ] )

(* Snapshot placement (make bench-snapshot): all four policies, scored by
   virtual time-to-frontier; dynamic must strictly beat the best static
   policy on at least half the targets. The targets are protocol-diverse,
   with seed sessions long enough for mid-stream placement (>=
   Policy.min_packets_for_snapshot program packets): SMTP, FTP x3, RTSP
   and TLS. *)
let snapshot_matrix =
  let config =
    {
      Campaign.default_config with
      Campaign.budget_ns = 8_000_000_000;
      max_execs = 25_000;
      seed = 7;
      sample_interval_ns = 100_000_000;
    }
  in
  let targets = [ "exim"; "lightftp"; "live555"; "openssl"; "proftpd"; "pure-ftpd" ] in
  let policies = [ Policy.None_; Policy.Balanced; Policy.Aggressive; Policy.Dynamic ] in
  let run policy cfg entry = Campaign.run { cfg with Campaign.policy } entry in
  {
    file = "BENCH_snapshot.json";
    title = "Snapshot placement matrix: virtual time-to-coverage per policy";
    config;
    header =
      [ ("virtual_budget_s", Int (config.Campaign.budget_ns / 1_000_000_000));
        ("max_execs", Int config.Campaign.max_execs);
        ("matrix_size", Int (List.length targets)) ];
    targets;
    arms = List.map (fun p -> (Policy.name p, run p)) policies;
    judge =
      race
        ~clock:(fun r -> (r.Report.timeline, r.Report.virtual_ns))
        ~show:(fun ns -> Printf.sprintf "%.3fs" (float_of_int ns /. 1e9))
        ~beats:( < )
        ~keys:("dynamic_wins", "policies", "policy", "ttc_ns")
        ~extra:(fun r ->
          match r.Report.placement with
          | None -> []
          | Some p ->
            [ ("probes", Int p.Report.probes); ("moves", Int p.Report.moves);
              ("boundaries", Int p.Report.boundary_count) ]);
    key = "dynamic_wins";
    claim = "dynamic beats the best static policy";
    gate = (1, 2);
    checks = probe_prior;
  }

(* Mutation engines (make bench-mutation): havoc vs typed on the snapshot
   matrix's targets and config, scored by executions-to-frontier on the
   exec-keyed timeline, which records every frontier advance, so the race
   is exact and budget-independent; typed must reach the frontier within
   havoc's execs on at least half the targets. *)
let mutation_matrix =
  let engines = [ Engines.Havoc; Engines.Typed ] in
  let run engine cfg entry = Campaign.run { cfg with Campaign.engine } entry in
  let mutator (s : Report.mutator_stat) =
    Obj
      [ ("name", Str s.Report.mut_name); ("attempts", Int s.Report.mut_attempts);
        ("rejected", Int s.Report.mut_rejected); ("accepts", Int s.Report.mut_accepts);
        ("credit", Float s.Report.mut_credit) ]
  in
  {
    snapshot_matrix with
    file = "BENCH_mutation.json";
    title = "Mutation engine matrix: executions-to-coverage, havoc vs typed";
    arms = List.map (fun e -> (Engines.name e, run e)) engines;
    judge =
      race
        ~clock:(fun r -> (r.Report.exec_timeline, r.Report.execs))
        ~show:string_of_int ~beats:( <= )
        ~keys:("typed_wins", "engines", "engine", "execs_to_frontier")
        ~extra:(fun r ->
          match r.Report.mutation with
          | None -> []
          | Some m -> [ ("mutators", Arr (List.map mutator m.Report.mutators)) ]);
    key = "typed_wins";
    claim = "typed reaches the frontier in <= havoc's execs";
    gate = (1, 2);
    checks = (fun _ -> ([], []));
  }

(* length-lie at full rate: the semantic lie that reaches the planted
   trusted-length bugs; the other sites at 0.5 keep the mix broad. *)
let peer_fault_spec =
  "flip:0.5,truncate:0.5,duplicate:0.5,length-lie:1.0,desync-frame:0.5,drop-field:0.5"

(* A --mode peer campaign with encoder faults armed, run twice: same-seed
   peer campaigns must agree, and supervised recovery must absorb every
   fired encoder fault. *)
let run_peer cfg entry =
  let name = target_name entry in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("peer_matrix: " ^ m)) fmt in
  let script = Option.get (Nyx_peer.Peer_script.find name) in
  let peer_faults = Result.get_ok (Nyx_peer.Peer_fault.parse_spec peer_fault_spec) in
  let run () = Campaign.run ~peer:script ~peer_faults cfg entry in
  let r = run () in
  if not (Report.same_deterministic r (run ())) then
    fail "same-seed %s peer campaigns diverged" name;
  (match r.Report.resilience with
  | Some res when res.Report.faults_aborted <> 0 ->
    fail "%s aborted %d encoder faults (supervised recovery must absorb all of them)" name
      res.Report.faults_aborted
  | Some _ -> ()
  | None -> fail "%s armed no fault plan" name);
  r

(* Peer mode wins a target with strictly more unique edges, or with a
   crash kind the bytecode campaign never saw: protocol-correct traffic
   carrying semantic encoder lies reaches parser states that raw byte
   mutation does not. *)
let peer_judge results =
  let peer = List.assoc "peer" results and bytecode = List.assoc "bytecode" results in
  let kinds (r : Report.campaign_result) =
    List.map (fun (c : Report.crash_report) -> c.Report.kind) r.Report.crashes
  in
  let peer_only = List.filter (fun k -> not (List.mem k (kinds bytecode))) (kinds peer) in
  let win = peer.Report.final_edges > bytecode.Report.final_edges || peer_only <> [] in
  let ps = Option.get peer.Report.peer in
  let strs l = Arr (List.map (fun s -> Str s) l) in
  {
    win;
    cells = List.map (fun r -> string_of_int r.Report.final_edges) [ peer; bytecode ];
    row =
      [ ("peer_edges", Int peer.Report.final_edges);
        ("bytecode_edges", Int bytecode.Report.final_edges);
        ("peer_crash_kinds", strs (kinds peer));
        ("bytecode_crash_kinds", strs (kinds bytecode));
        ("peer_only_crash_kinds", strs peer_only);
        ("peer_actions", Int ps.Report.peer_actions);
        ("faults_fired", Int (List.fold_left (fun a (_, f) -> a + f) 0 ps.Report.peer_fired));
        ("desyncs", Int ps.Report.peer_desyncs);
        ("restarts", Int ps.Report.peer_restarts);
        ("quarantines", Int ps.Report.peer_quarantines);
        ("win", Bool win) ];
  }

(* Peer vs bytecode (make bench-peer): the same seed and budget, ASan on,
   on every peer-scripted matrix target; peer mode must win on at least 2
   of the 3. *)
let peer_matrix =
  let config =
    {
      Campaign.default_config with
      Campaign.budget_ns = 6_000_000_000;
      max_execs = 20_000;
      seed = 11;
      asan = true;
    }
  in
  {
    file = "BENCH_peer.json";
    title = "Peer-vs-bytecode matrix: unique edges and crash kinds";
    config;
    header =
      [ ("fault_spec", Str peer_fault_spec); ("budget_ns", Int config.Campaign.budget_ns) ];
    targets = [ "lightftp"; "tinydtls"; "mysql-client" ];
    arms = [ ("peer", run_peer); ("bytecode", fun cfg entry -> Campaign.run cfg entry) ];
    judge = peer_judge;
    key = "wins";
    claim = "peer beats bytecode (more edges or a peer-only crash kind)";
    gate = (2, 3);
    checks = (fun _ -> ([], []));
  }

(* ------------------------------------------------------------------ *)

(* [paper] is the paper matrix, computed on first use and shared by the
   tables built from it. *)
let experiments paper =
  let of_paper table () = table (Lazy.force paper) in
  [
    ("table1", of_paper table1);
    ("table2", of_paper table2);
    ("table3", of_paper table3);
    ("table4", table4);
    ("table5", of_paper table5);
    ("fig5", of_paper fig5);
    ("fig6", fig6);
    ("scalability", scalability);
    ("faster_than_light", faster_than_light);
    ("ablation_reuse", ablation_reuse);
    ("ablation_dirty", ablation_dirty);
    ("ablation_boundary", ablation_boundary);
    ("ablation_remirror", ablation_remirror);
    ("ablation_typed", ablation_typed_spec);
    ("case_studies", case_studies);
    ("bechamel", bechamel_suite);
    ("parallel_smoke", parallel_smoke);
    ("snapshot_matrix", fun () -> run_matrix snapshot_matrix);
    ("mutation_matrix", fun () -> run_matrix mutation_matrix);
    ("hotpath", hotpath);
    ("peer_matrix", fun () -> run_matrix peer_matrix);
    ("faultcheck", faultcheck);
    ("statecheck", statecheck);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | ("--budget" | "--sync-ms" | "-o") :: [] ->
      Printf.eprintf "missing value for flag\n";
      exit 1
    | "--budget" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s when s > 0 ->
        flag_budget_s := Some s;
        parse acc rest
      | _ ->
        Printf.eprintf "--budget expects a positive integer, got %S\n" v;
        exit 1)
    | "--sync-ms" :: v :: rest -> (
      match int_of_string_opt v with
      | Some m when m > 0 ->
        flag_sync_ms := Some m;
        parse acc rest
      | _ ->
        Printf.eprintf "--sync-ms expects a positive integer, got %S\n" v;
        exit 1)
    | "-o" :: v :: rest ->
      flag_out := Some v;
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let experiments = experiments (lazy (paper_matrix ())) in
  let args = if args = [] || args = [ "all" ] then List.map fst experiments else args in
  if !flag_out <> None && List.length args <> 1 then begin
    Printf.eprintf "-o names one artifact: give exactly one experiment\n";
    exit 1
  end;
  Printf.printf
    "Nyx-Net benchmark harness: budget=%ds (virtual), reps=%d, max_execs=%d\n%!"
    (budget_ns / 1_000_000_000) reps max_execs;
  (* Domain count goes to stderr only: stdout must stay byte-identical
     whatever NYX_DOMAINS says. *)
  Printf.eprintf "  [pool] NYX_DOMAINS resolves to %d\n%!"
    (Nyx_parallel.Pool.default_domains ());
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1)
    args
