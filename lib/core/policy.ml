type kind = None_ | Balanced | Aggressive | Dynamic

(* Per-entry adaptive-placement state (kind = Dynamic). Candidate indices
   come from one protocol-state boundary probe per entry; the cost model
   then keeps running estimates of the quantities that decide where the
   incremental snapshot amortizes best. All fields are integers measured
   on the virtual clock, so every decision is deterministic. *)
type dyn = {
  mutable db_cands : int array;
      (* candidate snapshot indices, ascending, interior (1..packets-1);
         [packets-1] alone when the probe found no boundary *)
  mutable db_stale : int array;
      (* parallel to db_cands: consecutive no-news reuse rounds while the
         snapshot sat at that index *)
  mutable db_root_stale : int;
  mutable db_genuine : int; (* boundaries the probe actually found *)
  mutable db_probed : bool;
  mutable db_full_ns : int; (* EWMA of a full (root) execution *)
  mutable db_setup_ns : int; (* last measured prefix-replay + create ns *)
  mutable db_round_ns : int; (* last measured per-suffix-exec ns *)
  mutable db_pages : int; (* dirty pages copied by the last create *)
  mutable db_meas_idx : int; (* index db_setup_ns was measured at; 0 = none *)
  mutable db_cur : int; (* current placement: -1 unset, 0 root, else index *)
  mutable db_cooldown : int; (* reuse rounds before the next move is allowed *)
  mutable db_moves : int;
}

type t = {
  kind : kind;
  rng : Nyx_sim.Rng.t;
  cursor : (int, int) Hashtbl.t; (* aggressive: input id -> snapshot index *)
  dyn : (int, dyn) Hashtbl.t; (* dynamic: input id -> adaptive state *)
  mutable probes : int;
  mutable probe_hashes : int; (* state hashes taken across all probes *)
  mutable probe_skipped : int; (* hashes the static prior saved *)
  mutable last_move : (int * int * int) option; (* input, from, to *)
}

let name = function
  | None_ -> "nyx-net-none"
  | Balanced -> "nyx-net-balanced"
  | Aggressive -> "nyx-net-aggressive"
  | Dynamic -> "nyx-net-dynamic"

let of_name = function
  | "none" | "nyx-net-none" -> Ok None_
  | "balanced" | "nyx-net-balanced" -> Ok Balanced
  | "aggressive" | "nyx-net-aggressive" -> Ok Aggressive
  | "dynamic" | "nyx-net-dynamic" -> Ok Dynamic
  | s -> Error (Printf.sprintf "unknown policy %S (none|balanced|aggressive|dynamic)" s)

let reuse_count = 50

let create kind rng =
  { kind; rng; cursor = Hashtbl.create 64; dyn = Hashtbl.create 64; probes = 0;
    probe_hashes = 0; probe_skipped = 0; last_move = None }

let kind t = t.kind
let is_dynamic t = t.kind = Dynamic

let min_packets_for_snapshot = 5

(* ------------------------------------------------------------------ *)
(* Dynamic: probe lifecycle and measurements.                          *)

let fresh_dyn ~full_ns =
  {
    db_cands = [||];
    db_stale = [||];
    db_root_stale = 0;
    db_genuine = 0;
    db_probed = false;
    db_full_ns = max 1 full_ns;
    db_setup_ns = 0;
    db_round_ns = 0;
    db_pages = 0;
    db_meas_idx = 0;
    db_cur = -1;
    db_cooldown = 0;
    db_moves = 0;
  }

let dyn_entry t ~input_id ~full_ns =
  match Hashtbl.find_opt t.dyn input_id with
  | Some d -> d
  | None ->
    let d = fresh_dyn ~full_ns in
    Hashtbl.replace t.dyn input_id d;
    d

let prepare_dynamic t ~input_id ~packets ~full_ns =
  if t.kind <> Dynamic || packets < min_packets_for_snapshot then `Ready
  else
    let d = dyn_entry t ~input_id ~full_ns in
    if d.db_probed then `Ready else `Probe

let set_boundaries ?(hashed = 0) ?(skipped = 0) t ~input_id ~packets ~boundaries =
  match Hashtbl.find_opt t.dyn input_id with
  | None -> ()
  | Some d ->
    t.probe_hashes <- t.probe_hashes + hashed;
    t.probe_skipped <- t.probe_skipped + skipped;
    let interior = List.filter (fun i -> i >= 1 && i <= packets - 1) boundaries in
    let cands =
      match interior with [] -> [| packets - 1 |] | l -> Array.of_list l
    in
    Array.sort compare cands;
    d.db_cands <- cands;
    d.db_stale <- Array.make (Array.length cands) 0;
    d.db_genuine <- List.length interior;
    d.db_probed <- true;
    t.probes <- t.probes + 1

let observe_full t ~input_id ~ns =
  match Hashtbl.find_opt t.dyn input_id with
  | None -> ()
  | Some d -> d.db_full_ns <- max 1 (((3 * d.db_full_ns) + ns) / 4)

let observe_session t ~input_id ~idx ~setup_ns ~round_ns ~pages =
  match Hashtbl.find_opt t.dyn input_id with
  | None -> ()
  | Some d ->
    d.db_meas_idx <- idx;
    d.db_setup_ns <- max 0 setup_ns;
    d.db_round_ns <- max 1 round_ns;
    d.db_pages <- pages

(* ------------------------------------------------------------------ *)
(* Dynamic: the amortized cost model.                                  *)

(* Staleness penalty per consecutive no-news round: a placement that
   stopped producing coverage gets progressively more expensive, so the
   argmin drifts to fresher candidates — the adaptive analogue of the
   aggressive policy's walk-back, but constrained to state boundaries and
   weighed against each placement's measured cost. Scaled to the entry's
   execution cost so fast and slow targets feel the same pressure. *)
let stale_penalty d = max 1_000 (d.db_full_ns / 2)

let est_root d = d.db_full_ns + (d.db_root_stale * stale_penalty d)

(* Expected virtual ns per execution with the snapshot after [i] packets:
   the amortized setup (prefix replay + snapshot create, paid once per
   [reuse_count] suffix executions) plus one suffix execution, plus the
   placement's staleness penalty. Once a session at [db_meas_idx] has
   been measured, both terms scale from the measurement by packet counts
   — prefix cost grows with i, suffix cost with packets - i. Before any
   measurement the full-execution estimate is prorated the same way,
   which decreases in i: the policy starts at the deepest boundary (the
   aggressive heuristic) and lets measurements correct it. *)
let est_at d ~packets i =
  let stale =
    let rec find j =
      if j >= Array.length d.db_cands then 0
      else if d.db_cands.(j) = i then d.db_stale.(j)
      else find (j + 1)
    in
    find 0
  in
  let base =
    if d.db_meas_idx > 0 then
      let setup = d.db_setup_ns * i / d.db_meas_idx in
      let suffix =
        d.db_round_ns * (packets - i) / max 1 (packets - d.db_meas_idx)
      in
      (setup / reuse_count) + suffix
    else
      let prefix = d.db_full_ns * i / packets in
      let suffix = d.db_full_ns * (packets - i) / packets in
      (prefix / reuse_count) + suffix
  in
  base + (stale * stale_penalty d)

(* Hysteresis: moving re-pays a prefix replay and a snapshot create, so a
   move must promise at least this relative improvement (percent) over the
   current placement's estimate, and after a move the placement is frozen
   for [move_cooldown] reuse rounds. Together these make thrashing
   impossible: a move needs a strictly better estimate by a fixed margin,
   and estimates only change through measurements and staleness. *)
let move_margin_pct = 5
let move_cooldown = 1

let decide_dynamic t ~input_id ~packets =
  match Hashtbl.find_opt t.dyn input_id with
  | None -> `At (packets - 1) (* unreachable: prepare_dynamic ran first *)
  | Some d ->
    let best = ref 0 (* 0 = root *) and best_est = ref (est_root d) in
    Array.iter
      (fun i ->
        if i >= 1 && i <= packets - 1 then begin
          let e = est_at d ~packets i in
          if e < !best_est then begin
            best := i;
            best_est := e
          end
        end)
      d.db_cands;
    let placed =
      if d.db_cur < 0 then begin
        d.db_cur <- !best;
        !best
      end
      else if d.db_cooldown > 0 then begin
        d.db_cooldown <- d.db_cooldown - 1;
        d.db_cur
      end
      else begin
        let cur_est =
          if d.db_cur = 0 then est_root d else est_at d ~packets d.db_cur
        in
        if !best <> d.db_cur && !best_est * 100 < cur_est * (100 - move_margin_pct)
        then begin
          t.last_move <- Some (input_id, d.db_cur, !best);
          d.db_moves <- d.db_moves + 1;
          d.db_cooldown <- move_cooldown;
          d.db_cur <- !best;
          !best
        end
        else d.db_cur
      end
    in
    if placed = 0 then `Root else `At placed

let decide t ~input_id ~packets =
  t.last_move <- None;
  if packets < min_packets_for_snapshot then `Root
  else
    match t.kind with
    | None_ -> `Root
    | Balanced ->
      if Nyx_sim.Rng.chance t.rng 0.04 then `Root
      else if Nyx_sim.Rng.bool t.rng then `At (Nyx_sim.Rng.int_in t.rng 1 (packets - 1))
      else `At (Nyx_sim.Rng.int_in t.rng (packets / 2) (packets - 1))
    | Aggressive ->
      let idx =
        match Hashtbl.find_opt t.cursor input_id with
        | Some i when i >= 1 && i <= packets - 1 -> i
        | _ ->
          Hashtbl.replace t.cursor input_id (packets - 1);
          packets - 1
      in
      `At idx
    | Dynamic -> decide_dynamic t ~input_id ~packets

let last_move t = t.last_move

(* Staleness bookkeeping for the current placement. *)
let dyn_stale_bump d delta =
  if d.db_cur = 0 then d.db_root_stale <- max 0 (d.db_root_stale + delta)
  else
    Array.iteri
      (fun j i -> if i = d.db_cur then d.db_stale.(j) <- max 0 (d.db_stale.(j) + delta))
      d.db_cands

let notify_no_news t ~input_id =
  match t.kind with
  | None_ | Balanced -> ()
  | Aggressive -> (
    match Hashtbl.find_opt t.cursor input_id with
    | None -> ()
    | Some i ->
      (* One packet earlier; wrapping is handled lazily in [decide] when
         the index falls below 1 (it resets to the end). *)
      Hashtbl.replace t.cursor input_id (i - 1))
  | Dynamic -> (
    match Hashtbl.find_opt t.dyn input_id with
    | None -> ()
    | Some d -> dyn_stale_bump d 1)

let notify_news t ~input_id =
  match t.kind with
  | None_ | Balanced | Aggressive -> ()
  | Dynamic -> (
    match Hashtbl.find_opt t.dyn input_id with
    | None -> ()
    | Some d ->
      (* A productive placement sheds its accumulated staleness. *)
      if d.db_cur = 0 then d.db_root_stale <- 0
      else
        Array.iteri
          (fun j i -> if i = d.db_cur then d.db_stale.(j) <- 0)
          d.db_cands)

(* ------------------------------------------------------------------ *)
(* Placement statistics (for Report.campaign_result).                  *)

let placement_stats t =
  if t.kind <> Dynamic then None
  else begin
    let moves = ref 0 and bounds = ref 0 and placements = ref [] in
    Hashtbl.iter
      (fun id d ->
        moves := !moves + d.db_moves;
        bounds := !bounds + d.db_genuine;
        if d.db_cur >= 0 then placements := (id, d.db_cur) :: !placements)
      t.dyn;
    Some
      {
        Report.probes = t.probes;
        probe_hashes = t.probe_hashes;
        probe_hashes_skipped = t.probe_skipped;
        moves = !moves;
        boundary_count = !bounds;
        placements = List.sort compare !placements;
      }
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint section: the rng state, the aggressive cursor table and
   the dynamic per-entry table, both tables sorted by input id so the
   rendering is canonical whatever their internal order. Candidates and
   their staleness are written as pairs, so a loaded table keeps the two
   arrays the same length. *)

open Nyx_sim.Wire

let by_id tbl = List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.to_seq tbl |> List.of_seq)

let add_pair b (x, y) =
  add_int b x;
  add_int b y

let get_pair c =
  let x = get_int c in
  (x, get_int c)

let add_dyn b (id, d) =
  add_int b id;
  add_list add_pair b (List.combine (Array.to_list d.db_cands) (Array.to_list d.db_stale));
  add_int b d.db_root_stale;
  add_int b d.db_genuine;
  add_bool b d.db_probed;
  List.iter (add_int b)
    [ d.db_full_ns; d.db_setup_ns; d.db_round_ns; d.db_pages; d.db_meas_idx; d.db_cur;
      d.db_cooldown; d.db_moves ]

let get_dyn c =
  let id = get_int c in
  let cands = get_list get_pair c in
  let db_root_stale = get_int c in
  let db_genuine = get_int c in
  let db_probed = get_bool c in
  let db_full_ns = get_int c in
  let db_setup_ns = get_int c in
  let db_round_ns = get_int c in
  let db_pages = get_int c in
  let db_meas_idx = get_int c in
  let db_cur = get_int c in
  let db_cooldown = get_int c in
  let db_moves = get_int c in
  ( id,
    { db_cands = Array.of_list (List.map fst cands);
      db_stale = Array.of_list (List.map snd cands);
      db_root_stale; db_genuine; db_probed; db_full_ns; db_setup_ns; db_round_ns; db_pages;
      db_meas_idx; db_cur; db_cooldown; db_moves } )

let save t =
  to_bytes (fun b ->
      add_i64 b (Nyx_sim.Rng.state t.rng);
      add_list add_pair b (by_id t.cursor);
      add_list add_dyn b (by_id t.dyn);
      List.iter (add_int b) [ t.probes; t.probe_hashes; t.probe_skipped ])

let load t data =
  let rng, cursor, dyn, probes, hashes, skipped =
    of_bytes
      (fun c ->
        let rng = get_i64 c in
        let cursor = get_list get_pair c in
        let dyn = get_list get_dyn c in
        let probes = get_int c in
        let hashes = get_int c in
        (rng, cursor, dyn, probes, hashes, get_int c))
      data
  in
  Nyx_sim.Rng.set_state t.rng rng;
  Hashtbl.reset t.cursor;
  List.iter (fun (k, v) -> Hashtbl.replace t.cursor k v) cursor;
  Hashtbl.reset t.dyn;
  List.iter (fun (id, d) -> Hashtbl.replace t.dyn id d) dyn;
  t.probes <- probes;
  t.probe_hashes <- hashes;
  t.probe_skipped <- skipped;
  t.last_move <- None
