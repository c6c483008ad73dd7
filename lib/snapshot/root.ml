open Nyx_vm

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  device : bytes;
  aux : Aux_state.capture;
}

let create (vm : Vm.t) aux_reg =
  let pages = Hashtbl.create 1024 in
  Seq.iter
    (fun (pfn, content) ->
      Nyx_sim.Clock.advance vm.clock Nyx_sim.Cost.page_copy;
      Hashtbl.replace pages pfn (Bytes.copy content))
    (Memory.materialized vm.mem);
  let device = Device_state.capture vm.device in
  Nyx_sim.Clock.advance vm.clock Nyx_sim.Cost.device_fast_reset;
  let aux = Aux_state.capture aux_reg vm.clock in
  Memory.clear_dirty vm.mem;
  Disk.discard_overlays vm.disk;
  { pages; device; aux }

let page t pfn = Hashtbl.find_opt t.pages pfn

let revert_page t mem pfn =
  match Hashtbl.find t.pages pfn with
  | content -> Memory.set_page mem pfn content
  | exception Not_found -> Memory.drop_page mem pfn

let restore ?(disk = true) (vm : Vm.t) aux_reg t =
  let dirty = Memory.dirty vm.mem in
  let restored = Dirty_log.charge_stack dirty vm.clock in
  for i = 0 to restored - 1 do
    Nyx_sim.Clock.advance vm.clock Nyx_sim.Cost.page_copy;
    revert_page t vm.mem (Dirty_log.stack_entry dirty i)
  done;
  Dirty_log.clear dirty;
  Device_state.restore_fast vm.device vm.clock t.device;
  if disk then Disk.discard_overlays vm.disk;
  Aux_state.restore aux_reg vm.clock t.aux;
  restored

let pages_stored t = Hashtbl.length t.pages
let stored_bytes t = pages_stored t * Page.size
