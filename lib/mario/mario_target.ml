open Nyx_targets

let packet_bytes = 16

(* The target holds no state of its own: campaigns share it (a fleet's
   instances, a table's repetitions), on any domain. [on_init] boots the
   game in the context's guest heap and keeps the address of its state
   block at g+0; each packet rebuilds the Game.t from it. The address is
   harness bookkeeping, not target work, so it is written and read with
   uncharged Memory accesses. *)
let target level =
  let mem ctx = Nyx_vm.Guest_heap.memory ctx.Ctx.heap in
  let on_init ctx ~g =
    Nyx_vm.Memory.write_i32 (mem ctx) g (Game.base (Game.boot ctx level))
  in
  let on_packet ctx ~g ~conn:_ ~reply:_ data =
    let game = Game.attach ctx level ~base:(Nyx_vm.Memory.read_i32 (mem ctx) g) in
    try Game.run_input game data
    with Game.Level_solved { frames } ->
      Ctx.crash ctx ~kind:"level-solved" (Printf.sprintf "solved in %d frames" frames)
  in
  {
    Target.info =
      {
        Target.name = "mario-" ^ level.Level.name;
        role = Target.Server;
        port = 6000;
        proto = Nyx_netemu.Net.Udp;
        dissector = Nyx_pcap.Dissector.Datagram;
        startup_ns = 100_000_000;
        work_ns = 0 (* frames charge their own cost *);
        desock_compat = false;
        forking = false;
        max_recv = 256;
        dict = [];
      };
    hooks = { Target.default_hooks with on_init; on_packet };
  }

let seeds level =
  (* Enough hold-right-and-run packets to cross the level at max speed if
     it were flat. The fuzzer has to discover every jump itself. *)
  let px_needed = (level.Level.flag_col + 2) * Level.tile_px in
  let frames = px_needed * 16 / 40 (* walk speed *) in
  let bytes_needed = 1 + (frames / Game.frames_per_byte) in
  let n_packets = 1 + (bytes_needed / packet_bytes) in
  let run_right = Char.chr 0b1001 (* right+run *) in
  [ List.init n_packets (fun _ -> Bytes.make packet_bytes run_right) ]
