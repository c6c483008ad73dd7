type handler = { name : string; save : unit -> bytes * (unit -> unit) }

type t = {
  mutable handlers : handler list; (* registration order *)
  mutable hash_views : (string * (unit -> bytes)) list;
}

(* One handler's share of a capture: its image (what is charged, sized
   and hashed) and the closure that reinstates the captured state. *)
type entry = { owner : string; image : bytes; reinstate : unit -> unit }

type capture = entry list

let create () = { handlers = []; hash_views = [] }

let register t h = t.handlers <- t.handlers @ [ h ]

let register_hash_view t ~name view =
  t.hash_views <- (name, view) :: List.remove_assoc name t.hash_views

let charge clock image =
  Nyx_sim.Clock.advance clock (Nyx_sim.Cost.aux_state_per_byte (Bytes.length image))

let capture t clock =
  List.map
    (fun h ->
      let image, reinstate = h.save () in
      charge clock image;
      { owner = h.name; image; reinstate })
    t.handlers

let not_restorable () = invalid_arg "Aux_state.restore: a hash capture cannot be restored"

(* Like [capture], but a handler that registered a hash view is read
   through it instead of [save]. The view lets a component present a
   *normalized* byte image to the fuzzy protocol-state hash (telemetry
   counters zeroed) while snapshots keep capturing the exact state.
   Charges the same per-byte cost as a capture of the viewed bytes. *)
let hash_capture t clock =
  List.map
    (fun h ->
      let image =
        match List.assoc_opt h.name t.hash_views with
        | Some view -> view ()
        | None -> fst (h.save ())
      in
      charge clock image;
      { owner = h.name; image; reinstate = not_restorable })
    t.handlers

let mismatch () = invalid_arg "Aux_state.restore: handler set changed since capture"

(* Runs on every snapshot restore: a plain loop, no closure. *)
let rec reinstate_all clock handlers cap =
  match (handlers, cap) with
  | h :: handlers, e :: cap ->
    if not (String.equal h.name e.owner) then mismatch ();
    charge clock e.image;
    e.reinstate ();
    reinstate_all clock handlers cap
  | _ -> ()

let restore t clock cap =
  if List.compare_lengths t.handlers cap <> 0 then mismatch ();
  reinstate_all clock t.handlers cap

let size_bytes cap = List.fold_left (fun acc e -> acc + Bytes.length e.image) 0 cap

(* StateAFL-style fuzzy state hash. The captured aux state mixes real
   protocol state (socket tables, agent bookkeeping) with payload echoes
   (flow buffers), so a byte-exact hash would see a "new state" in every
   packet. Instead each handler's bytes are folded in 64-byte chunks,
   and each chunk contributes only a coarse signature — its non-zero
   population in buckets of 8 and its byte sum in buckets of 256 — so
   payload-level jitter inside a chunk usually leaves the hash unchanged
   while structural changes (a connection appearing, a state-machine
   advance, buffers growing past a chunk) move it. Deterministic: plain
   arithmetic over the capture bytes, no randomized seeds. *)

let chunk_size = 64

let fnv_prime = 0x100000001B3

(* FNV-1a's 64-bit offset basis truncated to OCaml's 63-bit int range. *)
let fnv_offset = 0x0BF29CE484222325

let fuzzy_hash (cap : capture) =
  let h = ref fnv_offset in
  let mix v = h := (!h lxor v) * fnv_prime in
  List.iter
    (fun { owner; image = b; _ } ->
      String.iter (fun c -> mix (Char.code c)) owner;
      let n = Bytes.length b in
      mix (n / chunk_size);
      let i = ref 0 in
      while !i < n do
        let stop = min n (!i + chunk_size) in
        let sum = ref 0 and nonzero = ref 0 in
        for j = !i to stop - 1 do
          let c = Char.code (Bytes.unsafe_get b j) in
          sum := !sum + c;
          if c <> 0 then incr nonzero
        done;
        mix (((!nonzero / 8) * 61) lxor (!sum / 256));
        i := stop
      done)
    cap;
  !h land max_int
