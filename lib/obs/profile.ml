type phase =
  | Reset
  | Prefix_replay
  | Suffix_exec
  | Snapshot_create
  | Snapshot_place
  | Cov_merge
  | Trim
  | Corpus_sync
  | Mutation
  | Peer
  | Other

let phases =
  [
    Reset;
    Prefix_replay;
    Suffix_exec;
    Snapshot_create;
    Snapshot_place;
    Cov_merge;
    Trim;
    Corpus_sync;
    Mutation;
    Peer;
    Other;
  ]

let num_phases = List.length phases

let index = function
  | Reset -> 0
  | Prefix_replay -> 1
  | Suffix_exec -> 2
  | Snapshot_create -> 3
  | Snapshot_place -> 4
  | Cov_merge -> 5
  | Trim -> 6
  | Corpus_sync -> 7
  | Mutation -> 8
  | Peer -> 9
  | Other -> 10

let phase_name = function
  | Reset -> "reset"
  | Prefix_replay -> "prefix-replay"
  | Suffix_exec -> "suffix-exec"
  | Snapshot_create -> "snapshot-create"
  | Snapshot_place -> "snapshot-place"
  | Cov_merge -> "cov-merge"
  | Trim -> "trim"
  | Corpus_sync -> "corpus-sync"
  | Mutation -> "mutation"
  | Peer -> "peer"
  | Other -> "other"

(* One campaign owns one profile on one domain (no locks): the fields are
   plain mutable accumulators. [inner_v]/[inner_w] implement self-time:
   while a span runs they accumulate the clock extent of spans nested
   inside it, which the enclosing span subtracts from its own extent. *)
type t = {
  counts : int array;
  virt : int array;
  wall : float array;
  mutable override_ : phase option;
  mutable inner_v : int;
  mutable inner_w : float;
}

let create () =
  {
    counts = Array.make num_phases 0;
    virt = Array.make num_phases 0;
    wall = Array.make num_phases 0.0;
    override_ = None;
    inner_v = 0;
    inner_w = 0.0;
  }

let span t phase clock f =
  let ph = match t.override_ with Some p -> p | None -> phase in
  let v0 = Nyx_sim.Clock.now_ns clock in
  let w0 = Unix.gettimeofday () in
  let outer_v = t.inner_v and outer_w = t.inner_w in
  t.inner_v <- 0;
  t.inner_w <- 0.0;
  let finish () =
    let dv = Nyx_sim.Clock.now_ns clock - v0 in
    let dw = Unix.gettimeofday () -. w0 in
    let i = index ph in
    t.counts.(i) <- t.counts.(i) + 1;
    t.virt.(i) <- t.virt.(i) + (dv - t.inner_v);
    t.wall.(i) <- t.wall.(i) +. (dw -. t.inner_w);
    (* Report our whole extent to the enclosing span (if any). *)
    t.inner_v <- outer_v + dv;
    t.inner_w <- outer_w +. dw
  in
  Fun.protect ~finally:finish f

let with_override t phase f =
  let saved = t.override_ in
  t.override_ <- Some phase;
  Fun.protect ~finally:(fun () -> t.override_ <- saved) f

(* Checkpoint section: the deterministic accumulators only, counts then
   virtual self-times, one int per phase. Wall-clock columns are
   informational and restart from zero on resume. *)

let save t =
  Nyx_sim.Wire.(to_bytes (fun b -> Array.iter (add_int b) (Array.append t.counts t.virt)))

let load t data =
  let v = Nyx_sim.Wire.(of_bytes (fun c -> Array.init (2 * num_phases) (fun _ -> get_int c))) data in
  Array.blit v 0 t.counts 0 num_phases;
  Array.blit v num_phases t.virt 0 num_phases

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type entry = { phase : phase; count : int; virtual_ns : int; wall_s : float }

type snapshot = {
  entries : entry list;
  total_virtual_ns : int;
  total_wall_s : float;
}

let snapshot t ~total_virtual_ns ~total_wall_s =
  let measured_v = Array.fold_left ( + ) 0 t.virt in
  let measured_w = Array.fold_left ( +. ) 0.0 t.wall in
  let entries =
    List.map
      (fun phase ->
        let i = index phase in
        match phase with
        | Other ->
          {
            phase;
            count = t.counts.(i);
            virtual_ns = t.virt.(i) + (total_virtual_ns - measured_v);
            wall_s = t.wall.(i) +. (total_wall_s -. measured_w);
          }
        | _ ->
          { phase; count = t.counts.(i); virtual_ns = t.virt.(i); wall_s = t.wall.(i) })
      phases
  in
  { entries; total_virtual_ns; total_wall_s }

let sum_virtual_ns s = List.fold_left (fun acc e -> acc + e.virtual_ns) 0 s.entries

let share total ns =
  if total = 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int total

let pp ppf s =
  Format.fprintf ppf "%-16s %10s %16s %7s %12s@." "phase" "count" "virtual ns" "%"
    "wall s";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-16s %10d %16d %6.1f%% %12.4f@." (phase_name e.phase)
        e.count e.virtual_ns
        (share s.total_virtual_ns e.virtual_ns)
        e.wall_s)
    s.entries;
  Format.fprintf ppf "%-16s %10s %16d %6.1f%% %12.4f@." "total" "" s.total_virtual_ns
    100.0 s.total_wall_s

let to_json s =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n  \"phases\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"phase\": %S, \"count\": %d, \"virtual_ns\": %d, \"share\": %.4f, \
            \"wall_s\": %.6f}"
           (phase_name e.phase) e.count e.virtual_ns
           (share s.total_virtual_ns e.virtual_ns /. 100.0)
           e.wall_s))
    s.entries;
  Buffer.add_string b
    (Printf.sprintf "\n  ],\n  \"total_virtual_ns\": %d,\n  \"total_wall_s\": %.6f\n}"
       s.total_virtual_ns s.total_wall_s);
  Buffer.contents b
