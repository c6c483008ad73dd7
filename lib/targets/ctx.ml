type t = {
  heap : Nyx_vm.Guest_heap.t;
  net : Nyx_netemu.Net.t;
  disk : Nyx_vm.Disk.t;
  cov : Coverage.t;
  clock : Nyx_sim.Clock.t;
  asan : bool;
  layout_cookie : int;
  mutable state_code : int;
}

exception Crash of { kind : string; detail : string }

let create ?(asan = false) ?(layout_cookie = 0) ~heap ~net ~disk clock =
  { heap; net; disk; cov = Coverage.create (); clock; asan; layout_cookie; state_code = 0 }

let of_vm ?asan ?layout_cookie ~net (vm : Nyx_vm.Vm.t) =
  create ?asan ?layout_cookie ~heap:vm.Nyx_vm.Vm.heap ~net ~disk:vm.Nyx_vm.Vm.disk
    vm.Nyx_vm.Vm.clock

let edge name = Hashtbl.hash name

let edge_pair name = (edge (name ^ ":T"), edge (name ^ ":F"))

let hit t id =
  Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.edge;
  Coverage.hit t.cov id

let branch t (on_true, on_false) cond =
  hit t (if cond then on_true else on_false);
  cond

let crash _t ~kind detail = raise (Crash { kind; detail })

let work t ns = Nyx_sim.Clock.advance t.clock ns

let set_state t code = t.state_code <- code

(* Golden-ratio mix so adjacent response codes land far apart — the
   signature is xor-folded into the fuzzy aux-state hash and must not
   collide with its low-entropy chunk buckets. *)
let state_signature t = (t.state_code * 0x9E3779B9) land max_int
