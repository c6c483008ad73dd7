open Nyx_vm
open Nyx_snapshot

let check_int = Alcotest.(check int)
let b = Bytes.of_string

let mk_vm ?(pages = 128) () =
  let clock = Nyx_sim.Clock.create () in
  let vm =
    Vm.create ~config:{ Vm.mem_pages = pages; device_size = 64; disk_sectors = 8 } clock
  in
  (vm, clock)

let mem_fingerprint (vm : Vm.t) =
  (* Hash of all materialized non-zero content plus zero semantics. *)
  let acc = ref [] in
  Seq.iter
    (fun (pfn, content) ->
      if Bytes.exists (fun c -> c <> '\000') content then
        acc := (pfn, Bytes.to_string content) :: !acc)
    (Memory.materialized vm.Vm.mem);
  List.sort compare !acc

(* Aux state *)

let test_aux_roundtrip () =
  let reg = Aux_state.create () in
  let value = ref 1 in
  Aux_state.register reg
    {
      Aux_state.name = "counter";
      save =
        (fun () ->
          let v = !value in
          (Bytes.of_string (string_of_int v), fun () -> value := v));
    };
  let clock = Nyx_sim.Clock.create () in
  let cap = Aux_state.capture reg clock in
  value := 99;
  Aux_state.restore reg clock cap;
  check_int "restored" 1 !value;
  check_int "size" 1 (Aux_state.size_bytes cap)

let test_aux_handler_mismatch () =
  let reg = Aux_state.create () in
  let clock = Nyx_sim.Clock.create () in
  let cap = Aux_state.capture reg clock in
  Aux_state.register reg
    { Aux_state.name = "late"; save = (fun () -> (Bytes.empty, ignore)) };
  Alcotest.check_raises "changed registry"
    (Invalid_argument "Aux_state.restore: handler set changed since capture")
    (fun () -> Aux_state.restore reg clock cap);
  Alcotest.check_raises "hash capture"
    (Invalid_argument "Aux_state.restore: a hash capture cannot be restored")
    (fun () -> Aux_state.restore reg clock (Aux_state.hash_capture reg clock))

(* Root snapshot *)

let test_root_restore_memory () =
  let vm, _ = mk_vm () in
  Memory.write vm.Vm.mem 0 (b "boot-state");
  let reg = Aux_state.create () in
  let root = Root.create vm reg in
  let baseline = mem_fingerprint vm in
  Memory.write vm.Vm.mem 0 (b "corrupted!");
  Memory.write vm.Vm.mem 5000 (b "more-noise");
  let restored = Root.restore vm reg root in
  Alcotest.(check bool) "pages restored" true (restored >= 2);
  Alcotest.(check bool) "memory identical" true (mem_fingerprint vm = baseline);
  check_int "dirty log clean" 0 (Vm.dirty_pages vm)

let test_root_restore_unmaterialized_page () =
  let vm, _ = mk_vm () in
  let reg = Aux_state.create () in
  let root = Root.create vm reg in
  (* Dirty a page that did not exist in the root image: restore must drop
     it back to the zero page. *)
  Memory.write vm.Vm.mem 9000 (b "ghost");
  ignore (Root.restore vm reg root);
  Alcotest.(check string) "reads zero" "\000\000\000\000\000"
    (Bytes.to_string (Memory.read vm.Vm.mem 9000 5))

let test_root_restores_device_and_disk () =
  let vm, _ = mk_vm () in
  Device_state.write vm.Vm.device 0 (b "pristine");
  Disk.write_base vm.Vm.disk 0 (Bytes.make 512 'B');
  let reg = Aux_state.create () in
  let root = Root.create vm reg in
  Device_state.write vm.Vm.device 0 (b "scribble");
  Disk.write_sector vm.Vm.disk 0 (Bytes.make 512 'X');
  ignore (Root.restore vm reg root);
  Alcotest.(check string) "device" "pristine"
    (Bytes.to_string (Device_state.read vm.Vm.device 0 8));
  Alcotest.(check char) "disk" 'B' (Bytes.get (Disk.read_sector vm.Vm.disk 0) 0)

let test_root_restore_cost_proportional_to_dirty () =
  let vm, clock = mk_vm ~pages:128 () in
  let reg = Aux_state.create () in
  let root = Root.create vm reg in
  Memory.write_u8 vm.Vm.mem (10 * Page.size) 1;
  let t0 = Nyx_sim.Clock.now_ns clock in
  ignore (Root.restore vm reg root);
  let one_page = Nyx_sim.Clock.now_ns clock - t0 in
  for p = 10 to 59 do
    Memory.write_u8 vm.Vm.mem (p * Page.size) 1
  done;
  let t1 = Nyx_sim.Clock.now_ns clock in
  ignore (Root.restore vm reg root);
  let fifty_pages = Nyx_sim.Clock.now_ns clock - t1 in
  Alcotest.(check bool) "scales with dirty pages" true
    (fifty_pages > 20 * (one_page - Nyx_sim.Cost.device_fast_reset))

(* Incremental engine *)

let setup_engine ?remirror_interval () =
  let vm, clock = mk_vm () in
  Memory.write vm.Vm.mem 0 (b "root-image");
  let reg = Aux_state.create () in
  let eng = Engine.create ?remirror_interval vm reg in
  (eng, vm, clock)

let test_engine_root_mode_restore () =
  let eng, vm, _ = setup_engine () in
  let baseline = mem_fingerprint vm in
  Memory.write vm.Vm.mem 100 (b "testcase");
  Engine.restore eng;
  Alcotest.(check bool) "restored to root" true (mem_fingerprint vm = baseline);
  check_int "one root restore" 1 (Engine.stats eng).Engine.root_restores

let test_engine_incremental_cycle () =
  let eng, vm, _ = setup_engine () in
  (* Execute a "prefix". *)
  Memory.write vm.Vm.mem 2000 (b "prefix-state");
  Engine.take_incremental eng;
  Alcotest.(check bool) "active" true (Engine.has_incremental eng);
  let prefix_view = mem_fingerprint vm in
  (* Fuzz several "suffixes". *)
  for i = 1 to 5 do
    Memory.write vm.Vm.mem 3000 (b (Printf.sprintf "suffix-%d" i));
    Engine.restore eng;
    Alcotest.(check bool) "back to prefix" true (mem_fingerprint vm = prefix_view)
  done;
  let s = Engine.stats eng in
  check_int "inc restores" 5 s.Engine.incremental_restores;
  check_int "inc creates" 1 s.Engine.incremental_creates

let test_engine_restore_root_discards_incremental () =
  let eng, vm, _ = setup_engine () in
  let root_view = mem_fingerprint vm in
  Memory.write vm.Vm.mem 2000 (b "prefix-state");
  Engine.take_incremental eng;
  Memory.write vm.Vm.mem 3000 (b "suffix");
  Engine.restore_root eng;
  Alcotest.(check bool) "inactive" false (Engine.has_incremental eng);
  Alcotest.(check bool) "memory back at root" true (mem_fingerprint vm = root_view);
  check_int "no dirty" 0 (Vm.dirty_pages vm)

let test_engine_double_take_rejected () =
  let eng, vm, _ = setup_engine () in
  Memory.write vm.Vm.mem 2000 (b "prefix");
  Engine.take_incremental eng;
  Alcotest.check_raises "second take"
    (Invalid_argument "Engine.take_incremental: already active") (fun () ->
      Engine.take_incremental eng)

let test_engine_second_snapshot_after_root_return () =
  let eng, vm, _ = setup_engine () in
  Memory.write vm.Vm.mem 2000 (b "prefix-A");
  Engine.take_incremental eng;
  Memory.write vm.Vm.mem 3000 (b "suffix");
  Engine.restore_root eng;
  (* New input, new prefix, new snapshot: mirror entries from the first
     snapshot are stale and must be reverted. *)
  Memory.write vm.Vm.mem 4000 (b "prefix-B");
  Engine.take_incremental eng;
  let view = mem_fingerprint vm in
  Memory.write vm.Vm.mem 2000 (b "noise-on-A");
  Engine.restore eng;
  Alcotest.(check bool) "prefix-B view restored" true (mem_fingerprint vm = view);
  Alcotest.(check string) "old prefix region back at root value"
    "\000" (Bytes.to_string (Memory.read vm.Vm.mem 2000 1))

let test_engine_remirror_bounds_accumulation () =
  let eng, vm, _ = setup_engine ~remirror_interval:4 () in
  for i = 0 to 15 do
    (* Touch a different page each round so the mirror accumulates. *)
    Memory.write vm.Vm.mem (((i mod 16) + 8) * Page.size) (b "x");
    Engine.take_incremental eng;
    Engine.restore eng;
    Engine.restore_root eng
  done;
  let s = Engine.stats eng in
  Alcotest.(check bool) "remirrored at least twice" true (s.Engine.remirrors >= 2);
  Alcotest.(check bool) "mirror bounded" true (Engine.mirror_pages eng <= 16)

let test_engine_incremental_restore_cost_excludes_prefix () =
  let eng, vm, clock = setup_engine () in
  (* Expensive prefix: 40 dirty pages. *)
  for p = 20 to 59 do
    Memory.write_u8 vm.Vm.mem (p * Page.size) 7
  done;
  Engine.take_incremental eng;
  (* Cheap suffix: 1 dirty page. *)
  Memory.write_u8 vm.Vm.mem (70 * Page.size) 7;
  let t0 = Nyx_sim.Clock.now_ns clock in
  Engine.restore eng;
  let inc_cost = Nyx_sim.Clock.now_ns clock - t0 in
  (* Compare with a root restore of the same suffix + prefix. *)
  Engine.restore_root eng;
  for p = 20 to 59 do
    Memory.write_u8 vm.Vm.mem (p * Page.size) 7
  done;
  Memory.write_u8 vm.Vm.mem (70 * Page.size) 7;
  let t1 = Nyx_sim.Clock.now_ns clock in
  Engine.restore eng;
  let root_cost = Nyx_sim.Clock.now_ns clock - t1 in
  Alcotest.(check bool) "incremental reset avoids prefix cost" true
    (inc_cost * 3 < root_cost)

let test_engine_disk_incremental () =
  let eng, vm, _ = setup_engine () in
  Disk.write_sector vm.Vm.disk 1 (Bytes.make 512 'P');
  Engine.take_incremental eng;
  Disk.write_sector vm.Vm.disk 1 (Bytes.make 512 'S');
  Engine.restore eng;
  Alcotest.(check char) "prefix sector" 'P' (Bytes.get (Disk.read_sector vm.Vm.disk 1) 0);
  Engine.restore_root eng;
  Alcotest.(check char) "root sector" '\000'
    (Bytes.get (Disk.read_sector vm.Vm.disk 1) 0)

(* Agamotto *)

let setup_agamotto ?budget_bytes () =
  let vm, clock = mk_vm () in
  Memory.write vm.Vm.mem 0 (b "root-image");
  let reg = Aux_state.create () in
  let ag = Agamotto.create ?budget_bytes vm reg in
  (ag, vm, clock)

let test_agamotto_checkpoint_restore () =
  let ag, vm, _ = setup_agamotto () in
  Memory.write vm.Vm.mem 1000 (b "state-A");
  let a = Agamotto.checkpoint ag in
  let view_a = mem_fingerprint vm in
  Memory.write vm.Vm.mem 2000 (b "state-B");
  let b_id = Agamotto.checkpoint ag in
  let view_b = mem_fingerprint vm in
  Memory.write vm.Vm.mem 3000 (b "garbage");
  Agamotto.restore ag a;
  Alcotest.(check bool) "back to A" true (mem_fingerprint vm = view_a);
  Agamotto.restore ag b_id;
  Alcotest.(check bool) "forward to B" true (mem_fingerprint vm = view_b);
  Agamotto.restore ag (Agamotto.root ag);
  Alcotest.(check string) "root clean" "\000"
    (Bytes.to_string (Memory.read vm.Vm.mem 1000 1))

let test_agamotto_restore_charges_bitmap_walk () =
  let ag, vm, clock = setup_agamotto () in
  Memory.write_u8 vm.Vm.mem (5 * Page.size) 1;
  let cp = Agamotto.checkpoint ag in
  Memory.write_u8 vm.Vm.mem (6 * Page.size) 1;
  let t0 = Nyx_sim.Clock.now_ns clock in
  Agamotto.restore ag cp;
  let cost = Nyx_sim.Clock.now_ns clock - t0 in
  let bitmap_floor = Memory.num_pages vm.Vm.mem * Nyx_sim.Cost.bitmap_scan_per_page in
  Alcotest.(check bool) "cost includes full bitmap scan" true (cost >= bitmap_floor)

let test_agamotto_lru_eviction () =
  (* Budget fits the root plus roughly one checkpoint; the second forces
     an eviction of the least recently used leaf. *)
  let ag, vm, _ = setup_agamotto ~budget_bytes:(3 * Page.size) () in
  Memory.write vm.Vm.mem 1000 (b "A");
  let a = Agamotto.checkpoint ag in
  Agamotto.restore ag (Agamotto.root ag);
  Memory.write vm.Vm.mem 2000 (b "B");
  let b_id = Agamotto.checkpoint ag in
  Agamotto.restore ag (Agamotto.root ag);
  Memory.write vm.Vm.mem 3000 (b "C");
  let c = Agamotto.checkpoint ag in
  ignore b_id;
  ignore c;
  Alcotest.(check bool) "evicted something" true (Agamotto.evictions ag >= 1);
  Alcotest.check_raises "evicted node unusable"
    (Invalid_argument "Agamotto: unknown or evicted checkpoint") (fun () ->
      Agamotto.restore ag a)

let test_agamotto_nyx_speed_gap () =
  (* The Figure 6 claim in miniature: for few dirty pages on a big VM,
     Nyx-Net's create+restore is much faster than Agamotto's. *)
  let pages = 65_536 in
  let run_nyx () =
    let clock = Nyx_sim.Clock.create () in
    let vm =
      Vm.create ~config:{ Vm.mem_pages = pages; device_size = 64; disk_sectors = 8 } clock
    in
    let eng = Engine.create vm (Aux_state.create ()) in
    for p = 100 to 163 do
      Memory.write_u8 vm.Vm.mem (p * Page.size) 1
    done;
    let t0 = Nyx_sim.Clock.now_ns clock in
    Engine.take_incremental eng;
    Memory.write_u8 vm.Vm.mem (200 * Page.size) 1;
    Engine.restore eng;
    Nyx_sim.Clock.now_ns clock - t0
  in
  let run_agamotto () =
    let clock = Nyx_sim.Clock.create () in
    let vm =
      Vm.create ~config:{ Vm.mem_pages = pages; device_size = 64; disk_sectors = 8 } clock
    in
    let ag = Agamotto.create vm (Aux_state.create ()) in
    for p = 100 to 163 do
      Memory.write_u8 vm.Vm.mem (p * Page.size) 1
    done;
    let t0 = Nyx_sim.Clock.now_ns clock in
    let cp = Agamotto.checkpoint ag in
    Memory.write_u8 vm.Vm.mem (200 * Page.size) 1;
    Agamotto.restore ag cp;
    Nyx_sim.Clock.now_ns clock - t0
  in
  let nyx = run_nyx () and aga = run_agamotto () in
  Alcotest.(check bool)
    (Printf.sprintf "nyx (%d ns) ~10x faster than agamotto (%d ns)" nyx aga)
    true
    (aga > 5 * nyx)

(* Properties *)

let writes_gen =
  QCheck.(
    small_list (pair (int_bound ((128 * Page.size) - 16)) (string_of_size QCheck.Gen.(int_range 1 16))))

let apply_writes vm writes =
  List.iter (fun (addr, s) -> Memory.write vm.Vm.mem addr (Bytes.of_string s)) writes

let prop_root_restore_identity =
  QCheck.Test.make ~name:"root restore is identity on memory" ~count:100
    QCheck.(pair writes_gen writes_gen)
    (fun (boot_writes, test_writes) ->
      let vm, _ = mk_vm () in
      apply_writes vm boot_writes;
      let reg = Aux_state.create () in
      let root = Root.create vm reg in
      let baseline = mem_fingerprint vm in
      apply_writes vm test_writes;
      ignore (Root.restore vm reg root);
      mem_fingerprint vm = baseline)

let prop_incremental_restore_identity =
  QCheck.Test.make ~name:"incremental restore is identity on prefix state" ~count:100
    QCheck.(triple writes_gen writes_gen writes_gen)
    (fun (boot_writes, prefix_writes, suffix_writes) ->
      let vm, _ = mk_vm () in
      apply_writes vm boot_writes;
      let eng = Engine.create vm (Aux_state.create ()) in
      apply_writes vm prefix_writes;
      Engine.take_incremental eng;
      let prefix_view = mem_fingerprint vm in
      apply_writes vm suffix_writes;
      Engine.restore eng;
      mem_fingerprint vm = prefix_view)

let prop_root_return_after_incremental =
  QCheck.Test.make ~name:"root return undoes prefix and suffix" ~count:100
    QCheck.(triple writes_gen writes_gen writes_gen)
    (fun (boot_writes, prefix_writes, suffix_writes) ->
      let vm, _ = mk_vm () in
      apply_writes vm boot_writes;
      let eng = Engine.create vm (Aux_state.create ()) in
      let root_view = mem_fingerprint vm in
      apply_writes vm prefix_writes;
      Engine.take_incremental eng;
      apply_writes vm suffix_writes;
      Engine.restore_root eng;
      mem_fingerprint vm = root_view)

let prop_agamotto_restore_identity =
  QCheck.Test.make ~name:"agamotto restore is identity" ~count:60
    QCheck.(triple writes_gen writes_gen writes_gen)
    (fun (boot_writes, a_writes, b_writes) ->
      let vm, _ = mk_vm () in
      apply_writes vm boot_writes;
      let ag = Agamotto.create vm (Aux_state.create ()) in
      apply_writes vm a_writes;
      let cp = Agamotto.checkpoint ag in
      let view = mem_fingerprint vm in
      apply_writes vm b_writes;
      Agamotto.restore ag cp;
      mem_fingerprint vm = view)


(* Stateful model test: drive the engine with an arbitrary interleaving of
   writes, incremental takes, restores and root returns, mirroring each
   step against a pure model of what memory should contain. *)

type engine_op = Write of int * string | Take | Restore | Root

let engine_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a s -> Write (a, s)) (int_bound ((128 * Page.size) - 16))
             (string_size ~gen:printable (int_range 1 8)));
        (2, return Take);
        (3, return Restore);
        (2, return Root);
      ])

(* domain-safe: qcheck property closure, run on a single domain *)
let prop_engine_model =
  QCheck.Test.make ~name:"engine matches a pure model under random op sequences"
    ~count:120
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) engine_op_gen))
    (fun ops ->
      let vm, _ = mk_vm () in
      Memory.write vm.Vm.mem 64 (b "boot");
      let eng = Engine.create vm (Aux_state.create ()) in
      (* The model: the root view, the view at the incremental snapshot
         (if active), and the live view. *)
      let root_view = mem_fingerprint vm in
      let snap_view = ref None in
      List.for_all
        (fun op ->
          match op with
          | Write (addr, s) ->
            Memory.write vm.Vm.mem addr (Bytes.of_string s);
            true
          | Take ->
            if Engine.has_incremental eng then true (* illegal; skip *)
            else begin
              Engine.take_incremental eng;
              snap_view := Some (mem_fingerprint vm);
              true
            end
          | Restore ->
            Engine.restore eng;
            let expected =
              match !snap_view with Some v -> v | None -> root_view
            in
            mem_fingerprint vm = expected
          | Root ->
            Engine.restore_root eng;
            snap_view := None;
            mem_fingerprint vm = root_view)
        ops)

let () =
  Alcotest.run "nyx_snapshot"
    [
      ( "aux",
        [
          Alcotest.test_case "roundtrip" `Quick test_aux_roundtrip;
          Alcotest.test_case "mismatch" `Quick test_aux_handler_mismatch;
        ] );
      ( "root",
        [
          Alcotest.test_case "restore memory" `Quick test_root_restore_memory;
          Alcotest.test_case "unmaterialized page" `Quick test_root_restore_unmaterialized_page;
          Alcotest.test_case "device and disk" `Quick test_root_restores_device_and_disk;
          Alcotest.test_case "cost proportional" `Quick test_root_restore_cost_proportional_to_dirty;
          QCheck_alcotest.to_alcotest prop_root_restore_identity;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "root mode" `Quick test_engine_root_mode_restore;
          Alcotest.test_case "cycle" `Quick test_engine_incremental_cycle;
          Alcotest.test_case "root return" `Quick test_engine_restore_root_discards_incremental;
          Alcotest.test_case "double take" `Quick test_engine_double_take_rejected;
          Alcotest.test_case "second snapshot" `Quick test_engine_second_snapshot_after_root_return;
          Alcotest.test_case "remirror" `Quick test_engine_remirror_bounds_accumulation;
          Alcotest.test_case "cost excludes prefix" `Quick test_engine_incremental_restore_cost_excludes_prefix;
          Alcotest.test_case "disk layers" `Quick test_engine_disk_incremental;
          QCheck_alcotest.to_alcotest prop_incremental_restore_identity;
          QCheck_alcotest.to_alcotest prop_engine_model;
          QCheck_alcotest.to_alcotest prop_root_return_after_incremental;
        ] );
      ( "agamotto",
        [
          Alcotest.test_case "checkpoint/restore" `Quick test_agamotto_checkpoint_restore;
          Alcotest.test_case "bitmap walk cost" `Quick test_agamotto_restore_charges_bitmap_walk;
          Alcotest.test_case "lru eviction" `Quick test_agamotto_lru_eviction;
          Alcotest.test_case "nyx speed gap" `Quick test_agamotto_nyx_speed_gap;
          QCheck_alcotest.to_alcotest prop_agamotto_restore_identity;
        ] );
    ]
