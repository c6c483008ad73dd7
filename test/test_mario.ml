open Nyx_mario

let check_int = Alcotest.(check int)

let mk_ctx () =
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create clock in
  let net = Nyx_netemu.Net.create clock in
  (Nyx_targets.Ctx.of_vm ~net vm, vm, clock)

let boot_level name =
  let level = Option.get (Level.find name) in
  let ctx, vm, clock = mk_ctx () in
  (Game.boot ctx level, level, vm, clock)

let hold ?(frames = 1) game byte =
  let b = Game.buttons_of_byte byte in
  for _ = 1 to frames do
    Game.step game b
  done

let right = 0b0001
let right_run = 0b1001
let right_run_jump = 0b1101
let jump = 0b0100

(* Levels *)

let test_levels_exist () =
  check_int "32 levels" 32 (List.length (Level.all ()));
  List.iter
    (fun world ->
      List.iter
        (fun stage ->
          let name = Printf.sprintf "%d-%d" world stage in
          match Level.find name with
          | None -> Alcotest.fail ("missing level " ^ name)
          | Some l ->
            Alcotest.(check bool) (name ^ " has flag") true (l.Level.flag_col > 0);
            Alcotest.(check bool) (name ^ " wide enough") true (l.Level.width > 40))
        [ 1; 2; 3; 4 ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_level_generation_deterministic () =
  let a = Level.generate ~world:3 ~stage:2 and b = Level.generate ~world:3 ~stage:2 in
  Alcotest.(check bool) "same grid" true (a.Level.grid = b.Level.grid)

let test_level_difficulty_grows () =
  let easy = Level.generate ~world:1 ~stage:2 and hard = Level.generate ~world:8 ~stage:4 in
  Alcotest.(check bool) "later worlds are longer" true
    (hard.Level.width > easy.Level.width)

let test_level_parse_rejects_bad_input () =
  Alcotest.check_raises "ragged" (Invalid_argument "Level.parse: ragged rows") (fun () ->
      ignore (Level.parse ~name:"x" [ "##"; "#" ]));
  Alcotest.check_raises "no flag" (Invalid_argument "Level.parse: no flag") (fun () ->
      ignore (Level.parse ~name:"x" [ "  "; "##" ]))

let test_level_render () =
  let l = Option.get (Level.find "1-1") in
  let art = Level.render l in
  Alcotest.(check bool) "contains flag" true (String.contains art 'F');
  Alcotest.(check bool) "contains ground" true (String.contains art '#');
  let with_path = Level.render ~path:[ (40, 180) ] l in
  Alcotest.(check bool) "path marker" true (String.contains with_path 'o')

(* Physics *)

let test_gravity_and_ground () =
  let game, _, _, _ = boot_level "1-1" in
  let y0 = Game.y_px game in
  hold ~frames:60 game 0;
  (* Idle: lands on the ground and stays. *)
  let y1 = Game.y_px game in
  hold ~frames:30 game 0;
  Alcotest.(check bool) "fell to ground" true (y1 >= y0);
  check_int "stable on ground" y1 (Game.y_px game)

let test_running_moves_right () =
  let game, _, _, _ = boot_level "1-1" in
  hold ~frames:30 game 0 (* settle *);
  let x0 = Game.x_px game in
  hold ~frames:30 game right_run;
  Alcotest.(check bool) "moved right" true (Game.x_px game > x0 + 30)

let test_run_is_faster_than_walk () =
  let dist byte =
    let game, _, _, _ = boot_level "1-1" in
    hold ~frames:30 game 0;
    let x0 = Game.x_px game in
    hold ~frames:40 game byte;
    Game.x_px game - x0
  in
  Alcotest.(check bool) "running faster" true (dist right_run > dist right)

let test_jump_rises_and_lands () =
  let game, _, _, _ = boot_level "1-1" in
  hold ~frames:30 game 0;
  let ground_y = Game.y_px game in
  hold game jump;
  hold ~frames:10 game 0;
  Alcotest.(check bool) "rose" true (Game.y_px game < ground_y);
  hold ~frames:60 game 0;
  check_int "landed back" ground_y (Game.y_px game)

let test_no_double_jump () =
  let game, _, _, _ = boot_level "1-1" in
  hold ~frames:30 game 0;
  let ground_y = Game.y_px game in
  hold game jump;
  hold ~frames:8 game 0;
  let apex_ish = Game.y_px game in
  (* Release and press jump again mid-air (away from any wall): no boost. *)
  hold game 0;
  hold game jump;
  hold ~frames:4 game jump;
  Alcotest.(check bool) "no mid-air boost" true (Game.y_px game >= apex_ish - 60);
  hold ~frames:120 game 0;
  check_int "eventually grounded" ground_y (Game.y_px game)

(* domain-safe: test-only lazy fixture, forced on a single domain *)
let gap_level =
  lazy
    (Level.parse ~name:"gap-test"
       [
         "                 F   ";
         "                 F   ";
         "                 F   ";
         "########   ##########";
         "########   ##########";
       ])

let boot_custom level =
  let ctx, vm, clock = mk_ctx () in
  (Game.boot ctx level, vm, clock)

let test_pit_death () =
  let game, _, _ = boot_custom (Lazy.force gap_level) in
  (* Run right without jumping: the gap kills. *)
  (try hold ~frames:2000 game right_run with Game.Level_solved _ -> ());
  Alcotest.(check bool) "died in a pit" true (not (Game.alive game));
  let frozen_x = Game.x_px game in
  hold ~frames:10 game right_run;
  check_int "dead player does not move" frozen_x (Game.x_px game)

let test_jump_clears_gap () =
  (* Some run-and-jump cadence clears the gap and reaches the flag. *)
  let try_cadence cadence =
    let game, _, _ = boot_custom (Lazy.force gap_level) in
    match
      for _ = 1 to 500 do
        hold ~frames:cadence game right_run;
        hold game right_run_jump
      done
    with
    | () -> false
    | exception Game.Level_solved _ -> Game.alive game
  in
  Alcotest.(check bool) "some cadence solves it" true
    (List.exists try_cadence [ 3; 4; 5; 6; 7; 8; 10; 12 ])

let test_determinism () =
  let run () =
    let game, _, _, _ = boot_level "1-3" in
    (try
       for i = 0 to 400 do
         hold game (if i mod 7 = 0 then right_run_jump else right_run)
       done
     with Game.Level_solved _ -> ());
    (Game.x_px game, Game.y_px game, Game.frame game, Game.alive game)
  in
  Alcotest.(check bool) "identical replays" true (run () = run ())

let test_wall_jump_glitch_climbs () =
  (* 2-1's cliff: only wall jumps get the player up. *)
  let game, level, _, _ = boot_level "2-1" in
  ignore level;
  (* Run to the cliff face, then mash jump while pushing right. *)
  (try
     hold ~frames:600 game right_run;
     let x_blocked = Game.x_px game in
     let y_blocked = Game.y_px game in
     for _ = 1 to 120 do
       hold game right_run_jump;
       hold game right_run
     done;
     Alcotest.(check bool)
       (Printf.sprintf "climbed (was %d,%d now %d,%d)" x_blocked y_blocked (Game.x_px game)
          (Game.y_px game))
       true
       (Game.y_px game < y_blocked - 32 || Game.x_px game > x_blocked + 32)
   with Game.Level_solved _ -> ())

let test_solved_exception_carries_frames () =
  let game, _, _, _ = boot_level "1-1" in
  match
    for _ = 1 to 4000 do
      hold game right_run;
      hold game right_run_jump
    done
  with
  | () -> Alcotest.fail "alternating run+jump should solve 1-1"
  | exception Game.Level_solved { frames } ->
    Alcotest.(check bool) "positive frame count" true (frames > 0);
    Alcotest.(check bool) "won flag set" true (Game.won game)

let test_state_in_guest_memory_snapshots () =
  (* The whole point: a snapshot taken mid-level restores the position. *)
  let level = Option.get (Level.find "1-1") in
  let clock = Nyx_sim.Clock.create () in
  let vm = Nyx_vm.Vm.create clock in
  let net = Nyx_netemu.Net.create clock in
  let ctx = Nyx_targets.Ctx.of_vm ~net vm in
  let game = Game.boot ctx level in
  let aux = Nyx_snapshot.Aux_state.create () in
  let engine = Nyx_snapshot.Engine.create vm aux in
  hold ~frames:120 game right_run;
  let mid_x = Game.x_px game and mid_frame = Game.frame game in
  Nyx_snapshot.Engine.take_incremental engine;
  hold ~frames:60 game right_run;
  Alcotest.(check bool) "moved past snapshot" true (Game.x_px game > mid_x);
  Nyx_snapshot.Engine.restore engine;
  check_int "x restored" mid_x (Game.x_px game);
  check_int "frame restored" mid_frame (Game.frame game)

let test_input_packets_drive_game () =
  let game, _, _, _ = boot_level "1-1" in
  hold ~frames:30 game 0;
  let x0 = Game.x_px game in
  Game.run_input game (Bytes.make 10 (Char.chr right_run));
  check_int "frames consumed" (30 + (10 * Game.frames_per_byte)) (Game.frame game);
  Alcotest.(check bool) "moved" true (Game.x_px game > x0)

let test_frame_costs_charged () =
  let game, _, _, clock = boot_level "1-1" in
  let t0 = Nyx_sim.Clock.now_ns clock in
  hold ~frames:10 game right;
  Alcotest.(check bool) "10 frames cost charged" true
    (Nyx_sim.Clock.now_ns clock - t0 >= 10 * Game.frame_cost_ns)

let prop_physics_deterministic =
  QCheck.Test.make ~name:"random input replays identically" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 15))
    (fun inputs ->
      let run () =
        let game, _, _, _ = boot_level "1-4" in
        (try List.iter (fun b -> hold ~frames:4 game b) inputs
         with Game.Level_solved _ -> ());
        (Game.x_px game, Game.y_px game, Game.alive game, Game.frame game)
      in
      run () = run ())

let prop_player_stays_in_bounds =
  QCheck.Test.make ~name:"player never escapes level bounds horizontally" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 80) (int_bound 15))
    (fun inputs ->
      let game, level, _, _ = boot_level "1-3" in
      (try List.iter (fun b -> hold ~frames:4 game b) inputs
       with Game.Level_solved _ -> ());
      Game.x_px game >= 0 && Game.x_px game <= (level.Level.width + 2) * 16)


let test_hard_levels_solvable () =
  (* Expensive: samples harder worlds to guard the generator against
     producing unsolvable layouts. Enable with NYX_TEST_SLOW=1. *)
  if Sys.getenv_opt "NYX_TEST_SLOW" = None then Alcotest.skip ()
  else begin
    (* Deep levels are stochastic at this budget: require a majority. *)
    let solved =
      List.filter
        (fun name ->
          let level = Option.get (Level.find name) in
          let entry =
            {
              Nyx_targets.Registry.target = Nyx_mario.Mario_target.target level;
              seeds = Nyx_mario.Mario_target.seeds level;
            }
          in
          let cfg =
            {
              Nyx_core.Campaign.default_config with
              Nyx_core.Campaign.budget_ns = 3_600_000_000_000;
              max_execs = 120_000;
              policy = Nyx_core.Policy.Aggressive;
              stop_on_solve = true;
              trim = true;
              seed = 2;
            }
          in
          (Nyx_core.Campaign.run cfg entry).Nyx_core.Report.solved_ns <> None)
        [ "3-2"; "5-4"; "8-1" ]
    in
    Alcotest.(check bool)
      (Printf.sprintf "majority of hard levels solvable (%d/3)" (List.length solved))
      true
      (List.length solved >= 2)
  end

(* Coverage pin: level runs through the executor — seeds plus fixed
   havoc mutants, digested by [Pins] (per-frame position edges, deaths,
   the wall-jump glitch and the win). Recorded before the Mario sites
   were bound to precomputed edge ids. *)
let test_coverage_pin () =
  List.iter
    (fun (name, expected) ->
      let level = Option.get (Level.find name) in
      let entry =
        {
          Nyx_targets.Registry.target = Mario_target.target level;
          seeds = Mario_target.seeds level;
        }
      in
      Alcotest.(check string) name expected (Pins.of_entry entry))
    [
      ("1-1", "dbd8fe0a7f74e4bce45c8e19b8a4d028");
      ("2-1", "3762d0fe8d8878d4c5588fbbd805012c");
      ("4-3", "cfdf34d3d1fdeb33a743b8c506affa8f");
    ]

let () =
  Alcotest.run "nyx_mario"
    [
      ( "levels",
        [
          Alcotest.test_case "all exist" `Quick test_levels_exist;
          Alcotest.test_case "deterministic" `Quick test_level_generation_deterministic;
          Alcotest.test_case "difficulty" `Quick test_level_difficulty_grows;
          Alcotest.test_case "parse errors" `Quick test_level_parse_rejects_bad_input;
          Alcotest.test_case "render" `Quick test_level_render;
        ] );
      ( "physics",
        [
          Alcotest.test_case "gravity" `Quick test_gravity_and_ground;
          Alcotest.test_case "running" `Quick test_running_moves_right;
          Alcotest.test_case "run vs walk" `Quick test_run_is_faster_than_walk;
          Alcotest.test_case "jump" `Quick test_jump_rises_and_lands;
          Alcotest.test_case "no double jump" `Quick test_no_double_jump;
          Alcotest.test_case "pit death" `Quick test_pit_death;
          Alcotest.test_case "jump clears gap" `Quick test_jump_clears_gap;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "wall jump glitch" `Quick test_wall_jump_glitch_climbs;
          Alcotest.test_case "solve exception" `Quick test_solved_exception_carries_frames;
          QCheck_alcotest.to_alcotest prop_physics_deterministic;
          QCheck_alcotest.to_alcotest prop_player_stays_in_bounds;
        ] );
      ( "integration",
        [
          Alcotest.test_case "hard levels solvable" `Slow test_hard_levels_solvable;
          Alcotest.test_case "snapshots" `Quick test_state_in_guest_memory_snapshots;
          Alcotest.test_case "input packets" `Quick test_input_packets_drive_game;
          Alcotest.test_case "frame costs" `Quick test_frame_costs_charged;
          Alcotest.test_case "coverage pin" `Quick test_coverage_pin;
        ] );
    ]
