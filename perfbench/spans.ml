(* In-memory span recorder for the traced run.

   A span is one timed call: name, start and end on the monotonic clock
   (ns), the span that was open when it started (its parent) and the id of
   the execution it belongs to. Spans stay in memory while the benchmark
   runs and are written out once, at exit, so recording costs two clock
   reads and one array store per call. A span's self time is its duration
   minus the durations of its direct children.

   "Side" spans time calls that the benchmark makes only to measure them
   (aux capture/restore, checkpoint encode/decode on the run's files):
   they give per-call figures but are left out of the layer shares. *)

type span = {
  name : string;
  start : int;
  mutable stop : int;
  parent : int;  (** -1 at top level *)
  exec : int;  (** -1 when outside any execution *)
  side : bool;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let store = ref (Array.make 4096 { name = ""; start = 0; stop = 0; parent = -1; exec = -1; side = false })
let count = ref 0
let open_stack : int list ref = ref []
let enabled = ref false

let push s =
  if !count = Array.length !store then begin
    let bigger = Array.make (2 * !count) s in
    Array.blit !store 0 bigger 0 !count;
    store := bigger
  end;
  !store.(!count) <- s;
  incr count;
  !count - 1

(* [with_span name f] times [f]. [exec] defaults to the parent's
   execution id. When recording is off this is a plain call. *)
let with_span ?exec ?(side = false) name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let exec =
      match exec with
      | Some e -> e
      | None -> if parent < 0 then -1 else !store.(parent).exec
    in
    let id = push { name; start = now_ns (); stop = 0; parent; exec; side } in
    open_stack := id :: !open_stack;
    let close () =
      !store.(id).stop <- now_ns ();
      open_stack := List.tl !open_stack
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let all () = Array.sub !store 0 !count

let duration s = s.stop - s.start

(* Self time of every span, indexed like [all ()]. *)
let self_times spans =
  let self = Array.map duration spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) - duration s)
    spans;
  self

(* The layer a span belongs to: its name up to the first dot. Names
   without a dot are harness glue and count as unattributed. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> Some (String.sub name 0 i)
  | None -> None

(* Nearest-rank percentile of an unsorted sample; 0 when empty. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 0.5 xs

(* Durations (ns) of every span called [name]. *)
let durations spans name =
  Array.of_list
    (Array.fold_right
       (fun s acc -> if s.name = name then float_of_int (duration s) :: acc else acc)
       spans [])

let write_csv path spans =
  let oc = open_out path in
  output_string oc "id,name,start_ns,end_ns,parent,exec,side\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%d,%s,%d,%d,%d,%d,%d\n" i s.name s.start s.stop s.parent s.exec
        (if s.side then 1 else 0))
    spans;
  close_out oc
