open Nyx_vm

type stats = {
  root_restores : int;
  incremental_creates : int;
  incremental_restores : int;
  pages_restored : int;
  remirrors : int;
}

type t = {
  vm : Vm.t;
  aux : Aux_state.t;
  root : Root.t;
  mirror : (int, Bytes.t) Hashtbl.t;
  remirror_interval : int;
  mutable creates_since_remirror : int;
  mutable inc_device : bytes option;
  mutable inc_aux : Aux_state.capture option;
  mutable active : bool;
  mutable pending : Nyx_resilience.Fault.t list;
      (* latent faults on the active incremental snapshot (injected at
         creation or at a failed restore); detected — raised — at the
         next incremental restore, retired as recovered by restore_root *)
  mutable s_root_restores : int;
  mutable s_inc_creates : int;
  mutable s_inc_restores : int;
  mutable s_pages_restored : int;
  mutable s_remirrors : int;
  mutable last_create_pages : int;
      (* pages copied by the most recent take_incremental — the measured
         dirty-set size the dynamic placement policy's cost model reads *)
}

let create ?(remirror_interval = 2000) vm aux =
  let root = Root.create vm aux in
  {
    vm;
    aux;
    root;
    mirror = Hashtbl.create 256;
    remirror_interval;
    creates_since_remirror = 0;
    inc_device = None;
    inc_aux = None;
    active = false;
    pending = [];
    s_root_restores = 0;
    s_inc_creates = 0;
    s_inc_restores = 0;
    s_pages_restored = 0;
    s_remirrors = 0;
    last_create_pages = 0;
  }

let vm t = t.vm
let aux t = t.aux
let has_incremental t = t.active
let last_create_pages t = t.last_create_pages

let charge_page t = Nyx_sim.Clock.advance t.vm.clock Nyx_sim.Cost.page_copy

let root_page_or_zero t pfn =
  match Root.page t.root pfn with Some p -> p | None -> Page.zero ()

(* Remap the mirror back onto a clean CoW view of the root image: drop all
   accumulated real copies. A page-table remap, far cheaper than copying. *)
let remirror t =
  Nyx_sim.Clock.advance t.vm.clock
    (Hashtbl.length t.mirror * Nyx_sim.Cost.dirty_stack_entry);
  Hashtbl.reset t.mirror;
  t.creates_since_remirror <- 0;
  t.s_remirrors <- t.s_remirrors + 1

(* Virtual time of this engine's VM — the [vns] stamp on trace events. *)
let vnow t = Nyx_sim.Clock.now_ns t.vm.clock

let take_incremental t =
  if t.active then invalid_arg "Engine.take_incremental: already active";
  let trace_v0 = vnow t in
  if t.creates_since_remirror >= t.remirror_interval then remirror t;
  let dirty = Memory.dirty t.vm.mem in
  (* Overwrite stale mirror entries (left by a previous incremental
     snapshot) with root content so the mirror again equals the root
     everywhere except the pages we are about to copy. *)
  let stale =
    Hashtbl.fold
      (fun pfn _ acc -> if Dirty_log.is_dirty dirty pfn then acc else pfn :: acc)
      t.mirror []
  in
  List.iter
    (fun pfn ->
      charge_page t;
      Hashtbl.replace t.mirror pfn (Bytes.copy (root_page_or_zero t pfn)))
    stale;
  (* Copy the pages dirtied since the root snapshot: this is the actual
     content of the incremental snapshot. *)
  let copied = ref (List.length stale) in
  Dirty_log.iter_stack dirty t.vm.clock (fun pfn ->
      charge_page t;
      incr copied;
      match Memory.page_content t.vm.mem pfn with
      | Some content -> Hashtbl.replace t.mirror pfn content
      | None -> Hashtbl.replace t.mirror pfn (Page.zero ()));
  Nyx_sim.Clock.advance t.vm.clock Nyx_sim.Cost.device_fast_reset;
  t.inc_device <- Some (Device_state.capture t.vm.device);
  t.inc_aux <- Some (Aux_state.capture t.aux t.vm.clock);
  Disk.freeze_incremental t.vm.disk;
  Dirty_log.clear dirty;
  t.active <- true;
  t.creates_since_remirror <- t.creates_since_remirror + 1;
  t.s_inc_creates <- t.s_inc_creates + 1;
  t.last_create_pages <- !copied;
  (* Fault injection (simulated — the image data is not actually damaged,
     the engine just behaves as if it were): a corrupted image or a lossy
     dirty log leaves a latent fault on this incremental snapshot,
     detected at its next restore. *)
  (match Vm.faults t.vm with
  | None -> ()
  | Some plan -> (
    (match
       Nyx_resilience.Plan.fire plan Nyx_resilience.Fault.Snap_corrupt ~vns:(vnow t)
     with
    | Some f -> t.pending <- t.pending @ [ f ]
    | None -> ());
    match Vm.dirty_loss_fault t.vm with
    | Some f -> t.pending <- t.pending @ [ f ]
    | None -> ()));
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.instant ~vns:(vnow t) "snapshot-create"
      [
        ("pages", Nyx_obs.Trace.Int !copied);
        ("mirror", Nyx_obs.Trace.Int (Hashtbl.length t.mirror));
        ("cost_ns", Nyx_obs.Trace.Int (vnow t - trace_v0));
      ]

(* Runs on every suffix exec: a plain loop over the dirty stack, no
   closure and no option per page. *)
let restore_incremental t =
  let dirty = Memory.dirty t.vm.mem in
  let restored = Dirty_log.charge_stack dirty t.vm.clock in
  for i = 0 to restored - 1 do
    let pfn = Dirty_log.stack_entry dirty i in
    charge_page t;
    match Hashtbl.find t.mirror pfn with
    | content -> Memory.set_page t.vm.mem pfn content
    | exception Not_found -> Root.revert_page t.root t.vm.mem pfn
  done;
  Dirty_log.clear dirty;
  (match (t.inc_device, t.inc_aux) with
  | Some dev, Some aux ->
    Device_state.restore_fast t.vm.device t.vm.clock dev;
    Aux_state.restore t.aux t.vm.clock aux
  | _ -> assert false);
  Disk.reset_to_incremental t.vm.disk;
  t.s_pages_restored <- t.s_pages_restored + restored;
  t.s_inc_restores <- t.s_inc_restores + 1

let restore_root t =
  let trace_v0 = vnow t and trace_p0 = t.s_pages_restored in
  (* Discarding the faulted incremental and rebuilding from the root IS
     the paper's recreate-on-demand recovery (§3.4): retire any latent
     faults as recovered. The internal restore_incremental step below is
     still usable — the corruption is simulated, not real damage. *)
  if t.pending <> [] then begin
    (match Vm.faults t.vm with
    | Some plan -> List.iter (Nyx_resilience.Plan.record_recovered plan) t.pending
    | None -> ());
    t.pending <- []
  end;
  if t.active then begin
    (* First reset the suffix writes to the incremental image, then revert
       every mirror entry to root content. Together this puts guest memory
       back at the root image while keeping the accumulated mirror pages
       around as stale copies (reverted again at the next create). *)
    restore_incremental t;
    t.s_inc_restores <- t.s_inc_restores - 1 (* internal step, not a test reset *);
    Hashtbl.iter
      (fun pfn _ ->
        charge_page t;
        Root.revert_page t.root t.vm.mem pfn)
      t.mirror;
    Disk.drop_incremental t.vm.disk;
    t.inc_device <- None;
    t.inc_aux <- None;
    t.active <- false
  end;
  let restored = Root.restore t.vm t.aux t.root in
  t.s_pages_restored <- t.s_pages_restored + restored;
  t.s_root_restores <- t.s_root_restores + 1;
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.instant ~vns:(vnow t) "snapshot-restore"
      [
        ("mode", Nyx_obs.Trace.Str "root");
        ("pages", Nyx_obs.Trace.Int (t.s_pages_restored - trace_p0));
        ("cost_ns", Nyx_obs.Trace.Int (vnow t - trace_v0));
      ]

let restore t =
  if t.active then begin
    (* Restore itself can fail (the incremental image unreadable at load
       time); detection happens here, before any engine state mutates, so
       the caller sees a consistent engine it can hand to restore_root. *)
    (match Vm.faults t.vm with
    | None -> ()
    | Some plan -> (
      match Nyx_resilience.Plan.fire plan Nyx_resilience.Fault.Restore_fail ~vns:(vnow t) with
      | Some f -> t.pending <- t.pending @ [ f ]
      | None -> ()));
    match t.pending with
    | f :: _ -> raise (Nyx_resilience.Fault.Injected f)
    | [] ->
      let trace_v0 = vnow t and trace_p0 = t.s_pages_restored in
      restore_incremental t;
      if Nyx_obs.Trace.on () then
        Nyx_obs.Trace.instant ~vns:(vnow t) "snapshot-restore"
          [
            ("mode", Nyx_obs.Trace.Str "incremental");
            ("pages", Nyx_obs.Trace.Int (t.s_pages_restored - trace_p0));
            ("cost_ns", Nyx_obs.Trace.Int (vnow t - trace_v0));
          ]
  end
  else restore_root t

let pending t = t.pending

let stats t =
  {
    root_restores = t.s_root_restores;
    incremental_creates = t.s_inc_creates;
    incremental_restores = t.s_inc_restores;
    pages_restored = t.s_pages_restored;
    remirrors = t.s_remirrors;
  }

let mirror_pages t = Hashtbl.length t.mirror
let root_stored_bytes t = Root.stored_bytes t.root

(* Checkpoint section. Persist only what later behavior can observe: the
   mirror KEY set (every entry's content is overwritten at the next
   take_incremental — stale entries from root, dirty ones from memory —
   before any restore reads it), the re-mirror/stat counters, and the
   dirty STACK order (Root.restore overwrites dirty page contents from the
   root image; only the per-entry cost charges depend on the stack). *)

open Nyx_sim.Wire

let save t =
  if t.active then invalid_arg "Engine.save: incremental snapshot active";
  to_bytes (fun b ->
      add_list add_int b
        (List.sort compare (Hashtbl.fold (fun pfn _ acc -> pfn :: acc) t.mirror []));
      List.iter (add_int b)
        [ t.creates_since_remirror; t.s_root_restores; t.s_inc_creates; t.s_inc_restores;
          t.s_pages_restored; t.s_remirrors ];
      add_list add_int b (Dirty_log.to_list (Memory.dirty t.vm.mem)))

(* Cost-free: the restored clock value already includes every charge the
   original run paid to build this state. *)
let load t data =
  if t.active then invalid_arg "Engine.load: incremental snapshot active";
  let mirror, counters, dirty =
    of_bytes
      (fun c ->
        let mirror = get_list get_int c in
        let counters = Array.init 6 (fun _ -> get_int c) in
        (mirror, counters, get_list get_int c))
      data
  in
  let pages = Memory.num_pages t.vm.mem in
  if List.exists (fun pfn -> pfn < 0 || pfn >= pages) (mirror @ dirty) then
    invalid_arg "Engine.load: page number outside guest memory";
  Hashtbl.reset t.mirror;
  List.iter (fun pfn -> Hashtbl.replace t.mirror pfn (Bytes.copy (root_page_or_zero t pfn))) mirror;
  t.creates_since_remirror <- counters.(0);
  t.s_root_restores <- counters.(1);
  t.s_inc_creates <- counters.(2);
  t.s_inc_restores <- counters.(3);
  t.s_pages_restored <- counters.(4);
  t.s_remirrors <- counters.(5);
  let log = Memory.dirty t.vm.mem in
  Dirty_log.clear log;
  List.iter (fun pfn -> ignore (Dirty_log.mark log pfn)) dirty
