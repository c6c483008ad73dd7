(* nyx-net-fuzz: command-line front end.

   Mirrors the five-step workflow of the paper's §5.4 case study:
   pick a target, pick or use the default raw-packet spec, optionally
   import a capture as seeds, and run the fuzzer. *)

open Cmdliner

let targets_doc =
  "Available targets: "
  ^ String.concat ", "
      (List.map
         (fun e -> e.Nyx_targets.Registry.target.Nyx_targets.Target.info.Nyx_targets.Target.name)
         (Nyx_targets.Registry.all ()))

(* Common arguments *)

let target_arg =
  let doc = "Fuzz target name. " ^ targets_doc in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

let policy_arg =
  let doc = "Snapshot placement policy: none, balanced, aggressive or dynamic." in
  Arg.(value & opt string "aggressive" & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let budget_arg =
  let doc = "Virtual-time budget in seconds." in
  Arg.(value & opt float 30.0 & info [ "b"; "budget" ] ~docv:"SECONDS" ~doc)

let max_execs_arg =
  let doc = "Maximum number of executions." in
  Arg.(value & opt int 200_000 & info [ "max-execs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Campaign random seed." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let asan_arg =
  let doc = "Enable the address-sanitizer analogue (bounds-checked heap)." in
  Arg.(value & flag & info [ "asan" ] ~doc)

let fuzzer_arg =
  let doc = "Fuzzer: nyx (default), aflnet, aflnet-no-state, aflnwe, afl++." in
  Arg.(value & opt string "nyx" & info [ "f"; "fuzzer" ] ~docv:"FUZZER" ~doc)

let seeds_arg =
  let doc = "Capture file ($(b,npcap) format) to import as seeds." in
  Arg.(value & opt (some file) None & info [ "seeds" ] ~docv:"FILE" ~doc)

let lookup_target name =
  match Nyx_targets.Registry.find name with
  | Some entry -> Ok entry
  | None -> Error (`Msg (Printf.sprintf "unknown target %S. %s" name targets_doc))

let print_result r =
  Format.printf "%a@." Nyx_core.Report.pp_summary r;
  List.iter
    (fun c ->
      Format.printf "  crash: %-18s at exec %-8d vtime %a@.         %s@."
        c.Nyx_core.Report.kind c.Nyx_core.Report.found_exec Nyx_sim.Clock.pp_duration
        c.Nyx_core.Report.found_ns c.Nyx_core.Report.detail)
    r.Nyx_core.Report.crashes;
  (match r.Nyx_core.Report.snapshot_stats with
  | Some s ->
    Format.printf
      "  snapshots: %d root restores, %d incremental created, %d incremental restores, %d remirrors@."
      s.Nyx_snapshot.Engine.root_restores s.Nyx_snapshot.Engine.incremental_creates
      s.Nyx_snapshot.Engine.incremental_restores s.Nyx_snapshot.Engine.remirrors
  | None -> ());
  (match r.Nyx_core.Report.placement with
  | Some p ->
    Format.printf
      "  placement: %d state probes, %d boundaries, %d moves, %d entries placed@."
      p.Nyx_core.Report.probes p.Nyx_core.Report.boundary_count
      p.Nyx_core.Report.moves
      (List.length p.Nyx_core.Report.placements)
  | None -> ());
  (match r.Nyx_core.Report.mutation with
  | Some m when m.Nyx_core.Report.engine <> "havoc" ->
    Format.printf "  mutation engine: %s@." m.Nyx_core.Report.engine;
    List.iter
      (fun (s : Nyx_core.Report.mutator_stat) ->
        Format.printf
          "    %-8s %7d attempts, %6d rejected, %5d accepts, credit %.3f@."
          s.Nyx_core.Report.mut_name s.Nyx_core.Report.mut_attempts
          s.Nyx_core.Report.mut_rejected s.Nyx_core.Report.mut_accepts
          s.Nyx_core.Report.mut_credit)
      m.Nyx_core.Report.mutators
  | _ -> ());
  (match r.Nyx_core.Report.resilience with
  | Some res -> Format.printf "%a@." Nyx_core.Report.pp_resilience res
  | None -> ());
  (match r.Nyx_core.Report.peer with
  | Some p -> Format.printf "  %a@." Nyx_core.Report.pp_peer p
  | None -> ());
  match r.Nyx_core.Report.solved_ns with
  | Some t -> Format.printf "  level solved at vtime %a@." Nyx_sim.Clock.pp_duration t
  | None -> ()

let load_seeds entry path =
  match path with
  | None -> Ok None
  | Some path -> (
    match Nyx_pcap.Capture.load path with
    | Error m -> Error (`Msg ("cannot load capture: " ^ m))
    | Ok cap ->
      let ns = Nyx_core.Campaign.net_spec () in
      let dissector =
        entry.Nyx_targets.Registry.target.Nyx_targets.Target.info.Nyx_targets.Target.dissector
      in
      Ok (Some [ Nyx_pcap.Importer.to_seed ns dissector cap ]))

(* fuzz command *)

let crash_dir_arg =
  let doc = "Directory to save crash reproducers into (one file per crash kind)." in
  Arg.(value & opt (some string) None & info [ "crash-dir" ] ~docv:"DIR" ~doc)

let save_crashes dir (r : Nyx_core.Report.campaign_result) =
  match dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun c ->
        let path =
          Filename.concat dir (Printf.sprintf "%s_%s.bin" r.Nyx_core.Report.target
                                 c.Nyx_core.Report.kind)
        in
        let oc = open_out_bin path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
            output_bytes oc c.Nyx_core.Report.input);
        Format.printf "  saved reproducer: %s@." path)
      r.Nyx_core.Report.crashes

let faults_arg =
  let doc =
    "Deterministic fault-injection spec, e.g. $(b,all:0.01) or \
     $(b,restore-fail:0.05,wedge:0.001). Defaults to $(b,NYX_FAULTS) when \
     that is set and non-empty."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let mode_arg =
  let doc =
    "Campaign mode: $(b,bytecode) (default; program payloads are raw wire \
     bytes) or $(b,peer) (payloads drive a scripted protocol-correct peer \
     whose encoder carries typed fault sites; requires a target with a peer \
     script — see $(b,--peer-faults))."
  in
  Arg.(value & opt string "bytecode" & info [ "mode" ] ~docv:"MODE" ~doc)

let peer_faults_arg =
  let doc =
    "Peer encoder fault spec for $(b,--mode peer), e.g. $(b,all:0.5) or \
     $(b,length-lie:1.0,truncate:0.2). Sites: flip, truncate, duplicate, \
     length-lie, desync-frame, drop-field."
  in
  Arg.(value & opt (some string) None & info [ "peer-faults" ] ~docv:"SPEC" ~doc)

let checkpoint_arg =
  let doc = "Write a crash-safe campaign checkpoint to $(docv) periodically." in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_interval_arg =
  let doc = "Virtual seconds between checkpoint writes." in
  Arg.(
    value & opt float 5.0 & info [ "checkpoint-interval" ] ~docv:"SECONDS" ~doc)

let engine_arg =
  let doc =
    "Mutation engine: $(b,havoc) (byte/structural mutators, the default) or \
     $(b,typed) (adds typestate splicing and spec-driven generation over the \
     affine IR, with coverage-credit weighting)."
  in
  Arg.(value & opt string "havoc" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let mutator_weights_arg =
  let doc =
    "Per-mutator base-weight overrides, e.g. $(b,havoc:1,splice:2,generate:0.5). \
     Names must exist in the selected --engine."
  in
  Arg.(value & opt (some string) None & info [ "mutator-weights" ] ~docv:"W" ~doc)

let parse_engine name =
  Result.map_error (fun m -> `Msg m) (Nyx_core.Engines.of_name name)

let parse_mutator_weights = function
  | None -> Ok []
  | Some s ->
    Result.map_error
      (fun m -> `Msg ("bad --mutator-weights: " ^ m))
      (Nyx_core.Engines.parse_weights s)

(* --faults wins; NYX_FAULTS is its default, read only for nyx
   campaigns (baseline fuzzers inject no faults). *)
let parse_faults ~nyx flag =
  let parse what spec =
    Result.map_error
      (fun m -> `Msg (what ^ m))
      (Result.map Option.some (Nyx_resilience.Plan.parse_spec spec))
  in
  match flag with
  | Some spec -> parse "bad --faults spec: " spec
  | None when not nyx -> Ok None
  | None -> (
    match Sys.getenv_opt "NYX_FAULTS" with
    | None | Some "" -> Ok None
    | Some spec -> parse "bad NYX_FAULTS spec: " spec)

(* Resolve --mode/--peer-faults into the optional peer script + encoder
   fault spec Campaign.run expects. *)
let parse_peer ~target ~mode ~peer_faults =
  let ( let* ) = Result.bind in
  match mode with
  | "bytecode" ->
    if peer_faults <> None then
      Error (`Msg "--peer-faults requires --mode peer")
    else Ok (None, None)
  | "peer" ->
    let* script =
      match Nyx_peer.Peer_script.find target with
      | Some s -> Ok s
      | None ->
        Error
          (`Msg
             (Printf.sprintf
                "target %S has no peer script; peer mode supports: %s" target
                (String.concat ", " (Nyx_peer.Peer_script.supported ()))))
    in
    let* faults =
      match peer_faults with
      | None -> Ok None
      | Some spec ->
        Result.map_error
          (fun m -> `Msg ("bad --peer-faults spec: " ^ m))
          (Result.map Option.some (Nyx_peer.Peer_fault.parse_spec spec))
    in
    Ok (Some script, faults)
  | m -> Error (`Msg (Printf.sprintf "unknown --mode %S (bytecode or peer)" m))

let make_checkpointing path interval =
  match path with
  | None -> None
  | Some path ->
    Some
      (Nyx_core.Campaign.checkpointing ~path
         ~interval_ns:(int_of_float (interval *. 1e9))
         ())

let fuzz_cmd =
  let run target fuzzer policy budget max_execs seed asan seeds_file crash_dir
      faults mode peer_faults ck_path ck_interval engine_name weights =
    let ( let* ) = Result.bind in
    let result =
      let* entry = lookup_target target in
      let* seeds = load_seeds entry seeds_file in
      let* faults = parse_faults ~nyx:(fuzzer = "nyx") faults in
      let* peer, peer_fault_spec = parse_peer ~target ~mode ~peer_faults in
      let budget_ns = int_of_float (budget *. 1e9) in
      if fuzzer = "nyx" then begin
        let* policy =
          Result.map_error (fun m -> `Msg m) (Nyx_core.Policy.of_name policy)
        in
        let* engine = parse_engine engine_name in
        let* mutator_weights = parse_mutator_weights weights in
        let cfg =
          {
            Nyx_core.Campaign.default_config with
            Nyx_core.Campaign.policy;
            budget_ns;
            max_execs;
            seed;
            asan;
            engine;
            mutator_weights;
          }
        in
        match
          Nyx_core.Campaign.run ?seeds ?faults ?peer
            ?peer_faults:peer_fault_spec
            ?checkpoint:(make_checkpointing ck_path ck_interval) cfg entry
        with
        | r -> Ok (Some r)
        | exception Invalid_argument m -> Error (`Msg m)
      end
      else if peer <> None then
        Error (`Msg "--mode peer is nyx-only (baseline fuzzers mutate raw bytes)")
      else begin
        let* spec =
          match
            List.find_opt (fun s -> s.Nyx_baselines.Fuzzers.name = fuzzer)
              Nyx_baselines.Fuzzers.all
          with
          | Some s -> Ok s
          | None -> Error (`Msg (Printf.sprintf "unknown fuzzer %S" fuzzer))
        in
        Ok (Nyx_baselines.Fuzzers.run spec ~budget_ns ~max_execs ~seed entry)
      end
    in
    match result with
    | Error (`Msg m) -> `Error (false, m)
    | Ok None ->
      Format.printf "n/a: %s cannot run this target@." fuzzer;
      `Ok ()
    | Ok (Some r) ->
      print_result r;
      save_crashes crash_dir r;
      `Ok ()
  in
  let doc = "Fuzz a target and report coverage and crashes." in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      ret
        (const run $ target_arg $ fuzzer_arg $ policy_arg $ budget_arg $ max_execs_arg
       $ seed_arg $ asan_arg $ seeds_arg $ crash_dir_arg $ faults_arg
       $ mode_arg $ peer_faults_arg $ checkpoint_arg $ checkpoint_interval_arg
       $ engine_arg $ mutator_weights_arg))

(* resume command: continue a campaign from a crash-safe checkpoint *)

let resume_cmd =
  let ckpt_arg =
    let doc = "Checkpoint file written by fuzz --checkpoint." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CHECKPOINT" ~doc)
  in
  let run target ckpt_path crash_dir ck_path ck_interval =
    let ( let* ) = Result.bind in
    let result =
      let* entry = lookup_target target in
      let* ckpt =
        Result.map_error
          (fun m -> `Msg ("cannot load checkpoint: " ^ m))
          (Nyx_core.Checkpoint.load ckpt_path)
      in
      (* Keep checkpointing to the same file unless told otherwise, so a
         resumed campaign is itself crash-safe. *)
      let ck_path = match ck_path with Some p -> Some p | None -> Some ckpt_path in
      match
        Nyx_core.Campaign.resume
          ?checkpoint:(make_checkpointing ck_path ck_interval) ckpt entry
      with
      | r -> Ok r
      | exception Invalid_argument m -> Error (`Msg m)
    in
    match result with
    | Error (`Msg m) -> `Error (false, m)
    | Ok r ->
      print_result r;
      save_crashes crash_dir r;
      `Ok ()
  in
  let doc =
    "Resume a campaign from a checkpoint; the final result is bit-identical \
     to the uninterrupted run's."
  in
  Cmd.v
    (Cmd.info "resume" ~doc)
    Term.(
      ret
        (const run $ target_arg $ ckpt_arg $ crash_dir_arg $ checkpoint_arg
       $ checkpoint_interval_arg))

(* list command *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        let i = e.Nyx_targets.Registry.target.Nyx_targets.Target.info in
        Format.printf "%-14s port %-5d %-4s %s@." i.Nyx_targets.Target.name
          i.Nyx_targets.Target.port
          (match i.Nyx_targets.Target.proto with
          | Nyx_netemu.Net.Tcp -> "tcp"
          | Nyx_netemu.Net.Udp -> "udp"
          | Nyx_netemu.Net.Unix_sock -> "unix")
          (if i.Nyx_targets.Target.desock_compat then "" else "(no desock)"))
      (Nyx_targets.Registry.all ());
    `Ok ()
  in
  let doc = "List available fuzz targets." in
  Cmd.v (Cmd.info "list" ~doc) Term.(ret (const run $ const ()))

(* mario command *)

let mario_cmd =
  let level_arg =
    let doc = "Level name, e.g. 1-1 … 8-4." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEVEL" ~doc)
  in
  let run level policy budget max_execs seed =
    match Nyx_mario.Level.find level with
    | None -> `Error (false, Printf.sprintf "unknown level %S (1-1 … 8-4)" level)
    | Some lvl -> (
      match Nyx_core.Policy.of_name policy with
      | Error m -> `Error (false, m)
      | Ok policy ->
        let entry =
          {
            Nyx_targets.Registry.target = Nyx_mario.Mario_target.target lvl;
            seeds = Nyx_mario.Mario_target.seeds lvl;
          }
        in
        let cfg =
          {
            Nyx_core.Campaign.default_config with
            Nyx_core.Campaign.policy;
            budget_ns = int_of_float (budget *. 1e9);
            max_execs;
            seed;
            stop_on_solve = true;
          }
        in
        let r = Nyx_core.Campaign.run cfg entry in
        print_result r;
        `Ok ())
  in
  let doc = "Fuzz a Super Mario level until it is solved (§5.3)." in
  let budget =
    Arg.(value & opt float 7200.0 & info [ "b"; "budget" ] ~docv:"SECONDS" ~doc:"Virtual budget.")
  in
  Cmd.v
    (Cmd.info "mario" ~doc)
    Term.(ret (const run $ level_arg $ policy_arg $ budget $ max_execs_arg $ seed_arg))

(* record command: write a target's canned traffic as a capture file *)

let record_cmd =
  let out_arg =
    let doc = "Output capture path." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run target out =
    match lookup_target target with
    | Error (`Msg m) -> `Error (false, m)
    | Ok entry ->
      Nyx_pcap.Capture.save (Nyx_targets.Registry.seed_capture entry) out;
      Format.printf "wrote %s@." out;
      `Ok ()
  in
  let doc = "Dump a target's canned seed traffic as a capture file." in
  Cmd.v (Cmd.info "record" ~doc) Term.(ret (const run $ target_arg $ out_arg))

(* replay command: run a serialized reproducer against a target *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      Bytes.of_string (really_input_string ic (in_channel_length ic)))

let replay_cmd =
  let input_arg =
    let doc = "Serialized reproducer program (as written by fuzz --crash-dir)." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"INPUT" ~doc)
  in
  let minimize_arg =
    let doc = "Minimize the reproducer before reporting (afl-tmin style)." in
    Arg.(value & flag & info [ "m"; "minimize" ] ~doc)
  in
  let run target input minimize =
    match lookup_target target with
    | Error (`Msg m) -> `Error (false, m)
    | Ok entry -> (
      let ns = Nyx_core.Campaign.net_spec () in
      match Nyx_spec.Program.parse ns.Nyx_spec.Net_spec.spec (read_file input) with
      | Error m -> `Error (false, "cannot parse reproducer: " ^ m)
      | Ok program -> (
        let exec = Nyx_core.Executor.create ~net_spec:ns entry.Nyx_targets.Registry.target in
        let r = Nyx_core.Executor.run_full exec program in
        (match r.Nyx_core.Report.status with
        | Nyx_core.Report.Pass -> Format.printf "result: pass (no crash)@."
        | Nyx_core.Report.Hang -> Format.printf "result: hang@."
        | Nyx_core.Report.Crash { kind; detail } ->
          Format.printf "result: crash %s (%s)@." kind detail);
        match (minimize, r.Nyx_core.Report.status) with
        | true, Nyx_core.Report.Crash { kind; _ } ->
          let minimized, execs =
            Nyx_core.Minimizer.minimize
              ~run:(Nyx_core.Executor.run_full exec)
              ~keep:(Nyx_core.Minimizer.keep_crash_kind kind)
              program
          in
          Format.printf "minimized from %d to %d bytes in %d executions:@.%a@."
            (Nyx_core.Minimizer.serialized_size program)
            (Nyx_core.Minimizer.serialized_size minimized)
            execs Nyx_spec.Program.pp minimized;
          `Ok ()
        | true, _ -> `Error (false, "nothing to minimize: the input does not crash")
        | false, _ ->
          Format.printf "%a@." Nyx_spec.Program.pp program;
          `Ok ()))
  in
  let doc = "Replay (and optionally minimize) a serialized reproducer." in
  Cmd.v (Cmd.info "replay" ~doc) Term.(ret (const run $ target_arg $ input_arg $ minimize_arg))

(* profile command: run a short profiled campaign and render the per-phase
   snapshot-cost breakdown (lib/obs Profile) *)

let profile_cmd =
  let json_arg =
    let doc = "Emit the profile as JSON on stdout instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let out_arg =
    let doc = "Also write the profile JSON (with campaign metadata) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let profile_json (r : Nyx_core.Report.campaign_result) snap =
    Printf.sprintf
      "{\"target\":%S,\"fuzzer\":%S,\"seed\":%d,\"execs\":%d,\"edges\":%d,\"virtual_ns\":%d,\"wall_s\":%.6f,\"profile\":%s}"
      r.Nyx_core.Report.target r.Nyx_core.Report.fuzzer r.Nyx_core.Report.run_seed
      r.Nyx_core.Report.execs r.Nyx_core.Report.final_edges r.Nyx_core.Report.virtual_ns
      r.Nyx_core.Report.wall_s
      (Nyx_obs.Profile.to_json snap)
  in
  let run target policy budget max_execs seed json out =
    let ( let* ) = Result.bind in
    let result =
      let* entry = lookup_target target in
      let* policy =
        Result.map_error (fun m -> `Msg m) (Nyx_core.Policy.of_name policy)
      in
      let cfg =
        {
          Nyx_core.Campaign.default_config with
          Nyx_core.Campaign.policy;
          budget_ns = int_of_float (budget *. 1e9);
          max_execs;
          seed;
        }
      in
      Ok (Nyx_core.Campaign.run ~profile:true cfg entry)
    in
    match result with
    | Error (`Msg m) -> `Error (false, m)
    | Ok r -> (
      match r.Nyx_core.Report.phase_profile with
      | None -> `Error (false, "campaign returned no profile (internal error)")
      | Some snap ->
        if json then print_endline (profile_json r snap)
        else begin
          Format.printf "%s  %s  seed %d: %d execs, %d edges, vtime %a@."
            r.Nyx_core.Report.target r.Nyx_core.Report.fuzzer r.Nyx_core.Report.run_seed
            r.Nyx_core.Report.execs r.Nyx_core.Report.final_edges
            Nyx_sim.Clock.pp_duration r.Nyx_core.Report.virtual_ns;
          Format.printf "%a@." Nyx_obs.Profile.pp snap
        end;
        (match out with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
              output_string oc (profile_json r snap);
              output_char oc '\n');
          if not json then Format.printf "wrote %s@." path);
        `Ok ())
  in
  let doc =
    "Run a profiled campaign and print the per-phase cost breakdown \
     (reset / prefix-replay / suffix-exec / snapshot-create / cov-merge / \
     trim), the paper's Table 3 applied to ourselves."
  in
  let budget =
    Arg.(
      value & opt float 10.0
      & info [ "b"; "budget" ] ~docv:"SECONDS" ~doc:"Virtual-time budget in seconds.")
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      ret
        (const run $ target_arg $ policy_arg $ budget $ max_execs_arg $ seed_arg
       $ json_arg $ out_arg))

(* lint command: static analysis over spec declarations, seed programs and
   optional captures (the Nyx_analysis passes) *)

let lint_cmd =
  let all_arg =
    let doc = "Audit every registered target (the default when no TARGET is given)." in
    Arg.(value & flag & info [ "all-targets" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the findings report as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let graph_dot_arg =
    let doc =
      "Write the static protocol state graphs of the audited specs (Graphviz \
       DOT, one digraph per spec) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "graph-dot" ] ~docv:"PATH" ~doc)
  in
  let graph_json_arg =
    let doc =
      "Write the static protocol state graphs of the audited specs (JSON \
       array) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "graph-json" ] ~docv:"PATH" ~doc)
  in
  let lint_target_arg =
    let doc = "Audit a single target's seed programs. " ^ targets_doc in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let run all json graph_dot graph_json target seeds_file =
    let ( let* ) = Result.bind in
    let ns = Nyx_core.Campaign.net_spec () in
    let ipc = Nyx_targets.Ipc_spec.create () in
    let entry_name e =
      e.Nyx_targets.Registry.target.Nyx_targets.Target.info.Nyx_targets.Target.name
    in
    let audit_seeds entry =
      let udp =
        entry.Nyx_targets.Registry.target.Nyx_targets.Target.info
          .Nyx_targets.Target.proto = Nyx_netemu.Net.Udp
      in
      List.mapi
        (fun i p ->
          Nyx_analysis.Audit.program ~udp
            ~subject:(Printf.sprintf "%s/seed[%d]" (entry_name entry) i)
            p)
        (Nyx_targets.Registry.seed_programs entry ns)
    in
    let result =
      let* entries =
        if all || target = None then Ok (Nyx_targets.Registry.all ())
        else
          let* e = lookup_target (Option.get target) in
          Ok [ e ]
      in
      let* capture_entries =
        match seeds_file with
        | None -> Ok []
        | Some path -> (
          match Nyx_pcap.Capture.load path with
          | Error m -> Error (`Msg ("cannot load capture: " ^ m))
          | Ok cap ->
            let dissector =
              match entries with
              | [ e ] ->
                e.Nyx_targets.Registry.target.Nyx_targets.Target.info
                  .Nyx_targets.Target.dissector
              | _ -> Nyx_pcap.Dissector.Raw
            in
            Ok
              [
                Nyx_analysis.Audit.capture
                  ~subject:
                    (Printf.sprintf "capture %s (%s)" path
                       (Nyx_pcap.Dissector.name dissector))
                  ns dissector cap;
              ])
      in
      let spec_audit s =
        Nyx_analysis.Audit.spec
          ~subject:(Printf.sprintf "spec %s" (Nyx_spec.Spec.name s))
          s
      in
      Ok
        (Nyx_analysis.Audit.of_entries
           (spec_audit ns.Nyx_spec.Net_spec.spec
            :: spec_audit ipc.Nyx_targets.Ipc_spec.spec
            :: Nyx_analysis.Audit.program ~subject:"firefox-ipc-typed/seed"
                 (Nyx_targets.Ipc_spec.seed ipc)
            :: (List.concat_map audit_seeds entries @ capture_entries)))
    in
    match result with
    | Error (`Msg m) -> `Error (false, m)
    | Ok audit ->
      let specs = [ ns.Nyx_spec.Net_spec.spec; ipc.Nyx_targets.Ipc_spec.spec ] in
      let write path content =
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        if not json then Format.printf "wrote %s@." path
      in
      Option.iter
        (fun path ->
          write path
            (String.concat "\n"
               (List.map
                  (fun s -> Nyx_analysis.State_graph.(to_dot (build s)))
                  specs)))
        graph_dot;
      Option.iter
        (fun path ->
          write path
            ("["
            ^ String.concat ","
                (List.map
                   (fun s -> Nyx_analysis.State_graph.(to_json (build s)))
                   specs)
            ^ "]"))
        graph_json;
      if json then print_endline (Nyx_analysis.Audit.to_json audit)
      else Format.printf "%a" Nyx_analysis.Audit.pp audit;
      (* Lint failure is exit code 1 (distinct from cmdliner's CLI-error
         codes): errors fail the build, warnings do not. *)
      if not (Nyx_analysis.Audit.is_clean audit) then exit 1;
      `Ok ()
  in
  let doc =
    "Statically analyse spec declarations, seed programs and captures: the \
     program verifier and spec linter of the nyx_analysis layer."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      ret
        (const run $ all_arg $ json_arg $ graph_dot_arg $ graph_json_arg
       $ lint_target_arg $ seeds_arg))

let main =
  let doc = "Nyx-Net: network fuzzing with incremental snapshots (OCaml reproduction)" in
  Cmd.group
    (Cmd.info "nyx-net-fuzz" ~doc)
    [
      fuzz_cmd; resume_cmd; list_cmd; mario_cmd; record_cmd; replay_cmd;
      lint_cmd; profile_cmd;
    ]

let () = exit (Cmd.eval main)
