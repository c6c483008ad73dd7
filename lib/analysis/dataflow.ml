open Nyx_spec

(* Typestate pass over programs: the per-program side of the static
   protocol state machine in [State_graph].

   Two analyses walk the program's values, each numbering them in output
   order as [Program.validate] does (value [v] is the [v]-th output of
   the program); they share that numbering, not a walk:

   - the abstract state path (which edge types have a live value after
     each op), which the typed splice mutator cuts programs by;

   - a per-op "affecting" classification under-approximating which ops
     can change the observable protocol state the dynamic boundary probe
     hashes (netemu tables + target memory, with pure telemetry
     normalized out). An op is *statically inert* only in the one case
     the standard handlers provably cannot touch that state: a TCP
     [packet] with an empty payload on a connection whose response queue
     was already drained — [Net.send_peer] drops zero-length sends, so
     no target code runs and no queue moves. Everything else (connect,
     close, UDP datagrams — delivered even when empty — non-empty or
     undrained packets, unknown opcodes) is conservatively affecting.

   Drained tracking: a value is "drained" when the server can have
   nothing queued for it. A delivered packet runs target code that may
   write to *any* connection, so it re-taints every other value; its own
   connection is drained last in the handler ([Net.responses]). An empty
   TCP packet delivers nothing — the target never runs — so it only
   drains its own connection. The feasible-boundary prior and the
   NYX_SANITIZE conformance gate both consume this classification, so
   soundness (never call an affecting op inert) is the invariant; missing
   inert ops only costs probe hashes. *)

let inputs (nt : Spec.node_ty) = nt.Spec.borrows @ nt.Spec.consumes

let node_of spec id =
  match Spec.node spec id with nt -> Some nt | exception Invalid_argument _ -> None

let all_data_empty (op : Program.op) =
  Array.for_all (fun b -> Bytes.length b = 0) op.Program.data

(* [affecting ?udp p] classifies each non-snapshot op of [p], in
   snapshot-stripped order. *)
let affecting ?(udp = false) (p : Program.t) =
  let p = Program.strip_snapshots p in
  let n = Array.length p.Program.ops in
  let affecting = Array.make n true in
  let drained = ref [||] in
  let taint_all () = Array.fill !drained 0 (Array.length !drained) false in
  Array.iteri
    (fun i (op : Program.op) ->
      (match node_of p.Program.spec op.Program.node with
      | Some nt
        when nt.Spec.nt_name = "packet"
             && Array.length op.Program.args = 1
             && op.Program.args.(0) >= 0
             && op.Program.args.(0) < Array.length !drained ->
        let v = op.Program.args.(0) in
        let empty = all_data_empty op in
        if (not udp) && empty && !drained.(v) then affecting.(i) <- false
        else if (not udp) && empty then !drained.(v) <- true
        else begin
          (* A delivered datagram/segment runs the target, which may
             queue replies on any connection. *)
          taint_all ();
          !drained.(v) <- true
        end
      | _ -> taint_all ());
      let outs =
        match node_of p.Program.spec op.Program.node with
        | Some nt -> List.length nt.Spec.outputs
        | None -> 0
      in
      if outs > 0 then drained := Array.append !drained (Array.make outs false))
    p.Program.ops;
  affecting

(* Statically feasible snapshot-boundary indices: the dynamic probe
   hashes after each op of the stripped program and reports a boundary at
   [i + 1] when the hash moved; only an affecting op can move it, and
   boundary [n] is never interior. *)
let feasible_boundaries ?udp (p : Program.t) =
  let aff = affecting ?udp p in
  let n = Array.length aff in
  List.filter (fun b -> aff.(b - 1)) (List.init (max 0 (n - 1)) (fun i -> i + 1))

(* [1 + the largest edge-type id] over [edges], at least [acc]. *)
let rec types_bound acc = function
  | [] -> acc
  | (e : Spec.edge_ty) :: rest -> types_bound (max acc (e.Spec.et_id + 1)) rest

(* Append values of types [edges] to the table [ty] from index [n] on,
   counting each in [live]; the new value count. *)
let rec push_live ty live n = function
  | [] -> n
  | (e : Spec.edge_ty) :: rest ->
    ty.(n) <- e.Spec.et_id;
    live.(e.Spec.et_id) <- live.(e.Spec.et_id) + 1;
    push_live ty live (n + 1) rest

(* A known opcode other than the snapshot: one that binds and outputs. *)
let binds spec node =
  node >= 0 && node < Spec.node_count spec && node <> Spec.snapshot_node_id

(* Abstract state path: the set of edge types with a live (unconsumed)
   value after each op of the *original* program (index 0 = before any
   op). Snapshot ops leave the state unchanged. One pass over a value
   table ([ty.(v)] = edge-type id of value [v], -1 once consumed) and a
   live count per edge type: a type's bit clears when its count drops
   to 0. *)
let state_path (p : Program.t) =
  let spec = p.Program.spec and ops = p.Program.ops in
  let n = Array.length ops in
  let cap = ref 0 and n_types = ref 0 in
  for i = 0 to n - 1 do
    let node = ops.(i).Program.node in
    if binds spec node then begin
      let outs = (Spec.node spec node).Spec.outputs in
      cap := !cap + List.length outs;
      n_types := types_bound !n_types outs
    end
  done;
  let ty = Array.make !cap (-1) and live = Array.make !n_types 0 in
  let path = Array.make (n + 1) 0 in
  let n_values = ref 0 and mask = ref 0 in
  for i = 0 to n - 1 do
    let op = ops.(i) in
    if binds spec op.Program.node then begin
      let nt = Spec.node spec op.Program.node in
      let args = op.Program.args in
      for slot = List.length nt.Spec.borrows to Array.length args - 1 do
        let v = args.(slot) in
        if v >= 0 && v < !n_values && ty.(v) >= 0 then begin
          let t = ty.(v) in
          ty.(v) <- -1;
          live.(t) <- live.(t) - 1;
          if live.(t) = 0 then mask := !mask land lnot (1 lsl t)
        end
      done;
      n_values := push_live ty live !n_values nt.Spec.outputs;
      mask :=
        List.fold_left (fun m (e : Spec.edge_ty) -> m lor (1 lsl e.Spec.et_id)) !mask
          nt.Spec.outputs
    end;
    path.(i + 1) <- !mask
  done;
  path

let check ?udp (p : Program.t) : Diag.t list =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let site i = Printf.sprintf "op %d" i in
  (* state-unreachable-op: an input edge type outside the monotone may-set
     of previously producible types — no binding of the argument slots can
     make the op executable at this position. *)
  let may = ref 0 in
  Array.iteri
    (fun i (op : Program.op) ->
      match node_of p.Program.spec op.Program.node with
      | Some nt when nt.Spec.nt_id <> Spec.snapshot_node_id ->
        List.iter
          (fun (e : Spec.edge_ty) ->
            if !may land (1 lsl e.Spec.et_id) = 0 then
              emit
                (Diag.error ~code:"state-unreachable-op" ~site:(site i)
                   (Printf.sprintf
                      "opcode %s needs a %s value but no preceding op can produce \
                       one: the abstract protocol state cannot reach this op"
                      nt.Spec.nt_name e.Spec.et_name)))
          (inputs nt);
        List.iter
          (fun (e : Spec.edge_ty) -> may := !may lor (1 lsl e.Spec.et_id))
          nt.Spec.outputs
      | _ -> ())
    p.Program.ops;
  (* redundant-prefix: maximal runs of statically inert ops. Reported in
     stripped-program indices mapped back to original op positions. *)
  let aff = affecting ?udp p in
  let orig_index =
    (* stripped index -> original index *)
    let idxs = ref [] in
    Array.iteri
      (fun i (op : Program.op) ->
        if op.Program.node <> Spec.snapshot_node_id then idxs := i :: !idxs)
      p.Program.ops;
    Array.of_list (List.rev !idxs)
  in
  let n = Array.length aff in
  let i = ref 0 in
  while !i < n do
    if not aff.(!i) then begin
      let j = ref !i in
      while !j + 1 < n && not aff.(!j + 1) do
        incr j
      done;
      emit
        (Diag.warning ~code:"redundant-prefix"
           ~site:(site orig_index.(!i))
           (Printf.sprintf
              "op%s %d..%d %s statically inert (empty packet on a drained \
               connection): the abstract protocol state repeats, so no snapshot \
               boundary is feasible inside"
              (if !j > !i then "s" else "")
              orig_index.(!i) orig_index.(!j)
              (if !j > !i then "are" else "is")));
      i := !j + 1
    end
    else incr i
  done;
  (* snapshot-past-last-transition: the ops between the last feasible
     boundary and the snapshot are inert, so the deeper placement buys no
     protocol state over the boundary itself. *)
  (match Program.snapshot_index p with
  | Some s when s > 0 && s < n ->
    let last = List.fold_left max 0 (feasible_boundaries ?udp p) in
    if s > last then
      let snap_pos =
        let pos = ref 0 in
        Array.iteri
          (fun i (op : Program.op) ->
            if op.Program.node = Spec.snapshot_node_id then pos := i)
          p.Program.ops;
        !pos
      in
      emit
        (Diag.warning ~code:"snapshot-past-last-transition" ~site:(site snap_pos)
           (Printf.sprintf
              "snapshot at packet index %d, past the last statically feasible \
               protocol-state boundary %d: every op in between is inert"
              s last))
  | _ -> ());
  List.rev !diags
