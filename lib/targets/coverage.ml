let map_size = 65536

(* The hot-loop analogue of the paper's dirty *stack*: alongside the
   64 KiB map we keep a journal of the cells touched this execution, so
   every per-execution operation (reset, merge, save, restore, counting)
   walks only the touched cells instead of scanning the whole map —
   O(touched), not O(map).

   Invariant: [journal.(0 .. live-1)] lists exactly the indices of the
   nonzero cells of [map], each once.  [hit] only pushes on a 0->nonzero
   transition and counts never return to zero except through [reset] /
   [restore], which rebuild the journal, so the invariant is maintained
   everywhere.  The journal starts small and doubles when a new cell finds
   it full: an execution touches a few hundred cells, and a 64 Ki-entry
   array per executor would cost more to allocate than a campaign's first
   executions. *)
type t = {
  map : Bytes.t;
  mutable prev : int;
  mutable journal : int array;  (* dense prefix [0, live): indices of nonzero cells *)
  mutable live : int;
}

let initial_journal = 256

let create () =
  {
    map = Bytes.make map_size '\000';
    prev = 0;
    journal = Array.make initial_journal 0;
    live = 0;
  }

(* Room for at least [n] entries, keeping the first [live]. *)
let reserve t n =
  if n > Array.length t.journal then begin
    let bigger = Array.make (min map_size (max n (2 * Array.length t.journal))) 0 in
    Array.blit t.journal 0 bigger 0 t.live;
    t.journal <- bigger
  end

let reset t =
  for k = 0 to t.live - 1 do
    Bytes.unsafe_set t.map (Array.unsafe_get t.journal k) '\000'
  done;
  t.live <- 0;
  t.prev <- 0

(* Full-map reference path, kept for property tests: clears every cell
   whether journaled or not. *)
let reset_slow t =
  Bytes.fill t.map 0 map_size '\000';
  t.live <- 0;
  t.prev <- 0

let hit t site =
  let site = site land (map_size - 1) in
  let idx = (site lxor t.prev) land (map_size - 1) in
  let c = Char.code (Bytes.unsafe_get t.map idx) in
  if c = 0 then begin
    if t.live = Array.length t.journal then reserve t (t.live + 1);
    t.journal.(t.live) <- idx;
    t.live <- t.live + 1
  end;
  if c < 255 then Bytes.unsafe_set t.map idx (Char.unsafe_chr (c + 1));
  t.prev <- site lsr 1

(* AFL's hit-count bucketing: 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+. *)
let bucket c =
  if c = 0 then 0
  else if c = 1 then 1
  else if c = 2 then 2
  else if c = 3 then 4
  else if c <= 7 then 8
  else if c <= 15 then 16
  else if c <= 31 then 32
  else if c <= 127 then 64
  else 128

let edge_count t = t.live

let edge_count_slow t =
  let n = ref 0 in
  for i = 0 to map_size - 1 do
    if Bytes.get t.map i <> '\000' then incr n
  done;
  !n

(* Reporting-only: O(map) full scan in cell-index order.  The hot paths
   (merge, save, matches) walk the journal directly instead. *)
let iter_hits t f =
  for i = 0 to map_size - 1 do
    let c = Char.code (Bytes.get t.map i) in
    if c <> 0 then f i (bucket c)
  done

let signature t =
  let sig_ = Array.init t.live (fun k ->
      let cell = t.journal.(k) in
      (cell, Char.code (Bytes.get t.map cell)))
  in
  Array.sort compare sig_;
  sig_

(* A checkpoint stores only the live cells: O(touched) to capture, and
   small enough that a session keeps one per incremental snapshot. *)
type checkpoint = {
  saved_cells : int array;
  saved_counts : Bytes.t;  (* raw count of saved_cells.(k) at position k *)
  saved_prev : int;
}

let save t =
  let cells = Array.sub t.journal 0 t.live in
  let counts = Bytes.create t.live in
  for k = 0 to t.live - 1 do
    Bytes.unsafe_set counts k (Bytes.unsafe_get t.map (Array.unsafe_get cells k))
  done;
  { saved_cells = cells; saved_counts = counts; saved_prev = t.prev }

let checkpoint_cells cp = Array.length cp.saved_cells

let restore t cp =
  reset t;
  let n = Array.length cp.saved_cells in
  reserve t n;
  for k = 0 to n - 1 do
    let cell = Array.unsafe_get cp.saved_cells k in
    Bytes.unsafe_set t.map cell (Bytes.unsafe_get cp.saved_counts k);
    t.journal.(k) <- cell
  done;
  t.live <- n;
  t.prev <- cp.saved_prev

let matches t cp =
  t.prev = cp.saved_prev
  && t.live = Array.length cp.saved_cells
  &&
  (* Both sides have exactly [live] nonzero cells, so count equality on
     every saved (nonzero) cell implies the cell sets coincide. *)
  (let ok = ref true in
   let n = Array.length cp.saved_cells in
   for k = 0 to n - 1 do
     if
       Bytes.unsafe_get t.map (Array.unsafe_get cp.saved_cells k)
       <> Bytes.unsafe_get cp.saved_counts k
     then ok := false
   done;
   !ok)

module Cumulative = struct
  type cov = t

  type t = {
    virgin : Bytes.t;  (* accumulated bucket bits per cell *)
    mutable edges : int;  (* distinct nonzero cells, maintained on merge *)
  }

  let create () = { virgin = Bytes.make map_size '\000'; edges = 0 }

  (* Direct journaled merge: walks the execution's journal, no closure,
     no full-map scan; keeps [edges] incrementally up to date. *)
  let merge t (cov : cov) =
    let novel = ref false in
    for k = 0 to cov.live - 1 do
      let i = Array.unsafe_get cov.journal k in
      let b = bucket (Char.code (Bytes.unsafe_get cov.map i)) in
      let seen = Char.code (Bytes.unsafe_get t.virgin i) in
      if seen lor b <> seen then begin
        novel := true;
        if seen = 0 then t.edges <- t.edges + 1;
        Bytes.unsafe_set t.virgin i (Char.unsafe_chr (seen lor b))
      end
    done;
    !novel

  (* Same merge, fed from a saved checkpoint instead of a live map: the
     corpus-sync path judges exported programs against a fleet-wide
     virgin map long after the exporting execution's map was reset, so it
     walks the checkpoint's cell list (raw counts, bucketed here).
     O(saved cells), identical verdict/state to [merge] on the map the
     checkpoint was taken from. *)
  let merge_saved t (cp : checkpoint) =
    let novel = ref false in
    let n = Array.length cp.saved_cells in
    for k = 0 to n - 1 do
      let i = Array.unsafe_get cp.saved_cells k in
      let b = bucket (Char.code (Bytes.unsafe_get cp.saved_counts k)) in
      let seen = Char.code (Bytes.unsafe_get t.virgin i) in
      if seen lor b <> seen then begin
        novel := true;
        if seen = 0 then t.edges <- t.edges + 1;
        Bytes.unsafe_set t.virgin i (Char.unsafe_chr (seen lor b))
      end
    done;
    !novel

  (* The pre-journal reference: full-scan via [iter_hits], kept for the
     equivalence property tests and the hotpath bench's before gear. *)
  let merge_slow t cov =
    let novel = ref false in
    iter_hits cov (fun i b ->
        let seen = Char.code (Bytes.get t.virgin i) in
        if seen lor b <> seen then begin
          novel := true;
          if seen = 0 then t.edges <- t.edges + 1;
          Bytes.set t.virgin i (Char.chr (seen lor b))
        end);
    !novel

  let edge_count t = t.edges

  let edge_count_slow t =
    let n = ref 0 in
    for i = 0 to map_size - 1 do
      if Bytes.get t.virgin i <> '\000' then incr n
    done;
    !n

  (* Checkpoint support: the virgin map is the whole state ([edges] is
     derived from it, recomputed on load). *)

  let state_bytes t = Bytes.copy t.virgin

  let load_state t b =
    if Bytes.length b <> map_size then
      invalid_arg "Coverage.Cumulative.load_state: wrong map size";
    Bytes.blit b 0 t.virgin 0 map_size;
    t.edges <- edge_count_slow t
end
