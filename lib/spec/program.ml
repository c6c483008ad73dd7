type op = { node : int; args : int array; data : bytes array }
type t = { spec : Spec.t; ops : op array }

(* Value tables. Output values are numbered in op order; a table holds,
   per value, the edge-type id it was produced with, or -1 once it is
   consumed, so "newest first" means highest index first. The helpers
   take their operands as arguments rather than closing over them, so
   calling one allocates nothing. *)

(* Values the known ops of [ops] output: the size of a value table. *)
let value_capacity spec ops =
  let n_nodes = Spec.node_count spec in
  let cap = ref 0 in
  for i = 0 to Array.length ops - 1 do
    let node = ops.(i).node in
    if node >= 0 && node < n_nodes then
      cap := !cap + List.length (Spec.node spec node).Spec.outputs
  done;
  !cap

(* Edge type of input slot [i]: the borrows come first, then the
   consumes. *)
let slot_edge (nt : Spec.node_ty) n_borrows i =
  if i < n_borrows then List.nth nt.Spec.borrows i
  else List.nth nt.Spec.consumes (i - n_borrows)

let slot_ty nt n_borrows i = (slot_edge nt n_borrows i).Spec.et_id

let rec push_outputs ty n = function
  | [] -> n
  | (et : Spec.edge_ty) :: rest ->
    ty.(n) <- et.Spec.et_id;
    push_outputs ty (n + 1) rest

(* Edge type of value [v], counting outputs from op [opi] on. For error
   messages only: every op before the failing one is known. *)
let rec value_edge t v opi =
  let outs = (Spec.node t.spec t.ops.(opi).node).Spec.outputs in
  let k = List.length outs in
  if v < k then List.nth outs v else value_edge t (v - k) (opi + 1)

(* Index of the first data field over its bound, or -1. *)
let rec long_field data i = function
  | [] -> -1
  | (dt : Spec.data_ty) :: rest ->
    if Bytes.length data.(i) > dt.Spec.max_len then i else long_field data (i + 1) rest

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

(* One pass over the ops and a value table, stopping at the first
   problem; messages are formatted only then. A consume slot takes its
   value out of the table as soon as it is checked, so a later slot of
   the same op cannot use it again. *)
let validate t =
  let ty = Array.make (value_capacity t.spec t.ops) (-1) in
  let n_values = ref 0 and snapshots = ref 0 in
  try
    for opi = 0 to Array.length t.ops - 1 do
      let op = t.ops.(opi) in
      let nt = try Spec.node t.spec op.node with Invalid_argument m -> raise (Invalid m) in
      if nt.Spec.nt_id = Spec.snapshot_node_id then begin
        incr snapshots;
        if !snapshots > 1 then invalid "multiple snapshot opcodes";
        if Array.length op.args <> 0 || Array.length op.data <> 0 then
          invalid "snapshot opcode carries no args or data"
      end;
      let name = nt.Spec.nt_name in
      let n_borrows = List.length nt.Spec.borrows in
      let n_in = n_borrows + List.length nt.Spec.consumes in
      if Array.length op.args <> n_in then invalid "op %d (%s): wrong arity" opi name;
      for i = 0 to n_in - 1 do
        let v = op.args.(i) in
        if v < 0 || v >= !n_values then invalid "op %d (%s): arg %d out of range" opi name i;
        if ty.(v) < 0 then invalid "op %d (%s): value %d already consumed" opi name v;
        let expected = slot_edge nt n_borrows i in
        if ty.(v) <> expected.Spec.et_id then
          invalid "op %d (%s): arg %d has type %s, expected %s" opi name i
            (value_edge t v 0).Spec.et_name expected.Spec.et_name;
        if i >= n_borrows then ty.(v) <- -1
      done;
      if Array.length op.data <> List.length nt.Spec.data then
        invalid "op %d (%s): wrong data field count" opi name;
      let long = long_field op.data 0 nt.Spec.data in
      if long >= 0 then invalid "op %d (%s): data field %d too long" opi name long;
      n_values := push_outputs ty !n_values nt.Spec.outputs
    done;
    Ok ()
  with Invalid m -> Error m

let packet_count t =
  Array.fold_left
    (fun acc op -> if op.node = Spec.snapshot_node_id then acc else acc + 1)
    0 t.ops

let snapshot_index t =
  let rec scan i packets =
    if i >= Array.length t.ops then None
    else if t.ops.(i).node = Spec.snapshot_node_id then Some packets
    else scan (i + 1) (packets + 1)
  in
  scan 0 0

let strip_snapshots t =
  let n = packet_count t in
  if n = Array.length t.ops then t
  else begin
    let ops = Array.make n t.ops.(0) and k = ref 0 in
    Array.iter
      (fun op ->
        if op.node <> Spec.snapshot_node_id then begin
          ops.(!k) <- op;
          incr k
        end)
      t.ops;
    { t with ops }
  end

let with_snapshot_at t i =
  let t = strip_snapshots t in
  let i = max 0 (min i (Array.length t.ops)) in
  let snap = { node = Spec.snapshot_node_id; args = [||]; data = [||] } in
  let ops =
    Array.concat [ Array.sub t.ops 0 i; [| snap |]; Array.sub t.ops i (Array.length t.ops - i) ]
  in
  { t with ops }

(* Repair helpers, allocation-free like the value-table helpers above. *)

(* [v] is bound in one of the slots [j, i) of [args]. *)
let rec bound_in args v j i = j < i && (args.(j) = v || bound_in args v (j + 1) i)

(* [data] has exactly the node's fields, each within its bound. *)
let rec data_fits data i = function
  | [] -> i = Array.length data
  | (dt : Spec.data_ty) :: rest ->
    i < Array.length data
    && Bytes.length data.(i) <= dt.Spec.max_len
    && data_fits data (i + 1) rest

(* One field per declared data type: missing fields are empty, oversized
   ones are clamped, extra ones are dropped. *)
let fit_data (nt : Spec.node_ty) data =
  Array.of_list
    (List.mapi
       (fun i (dt : Spec.data_ty) ->
         let d = if i < Array.length data then data.(i) else Bytes.empty in
         if Bytes.length d > dt.Spec.max_len then Bytes.sub d 0 dt.Spec.max_len else d)
       nt.Spec.data)

(* One pass over the ops and a value table. An op whose bindings are all
   usable and whose data fit is kept physically; only the ops that
   change, and the ops array when one does, are new. *)
let repair ?rng t =
  let ops = t.ops in
  let n_ops = Array.length ops in
  let n_nodes = Spec.node_count t.spec in
  let known op = op.node >= 0 && op.node < n_nodes in
  let ty = Array.make (value_capacity t.spec ops) (-1) in
  let n_values = ref 0 in
  (* Value [v] can fill slot [i] (of type [et]) of an op whose earlier
     slots hold [args]: it is live, of the right type, and not already
     consumed by an earlier consume slot of the same op. *)
  let usable args n_borrows i et v =
    v >= 0 && v < !n_values && ty.(v) = et && not (bound_in args v n_borrows i)
  in
  (* A new value for slot [i]: with [rng], one draw over the live values
     of type [et], newest first (values an earlier consume slot of this
     op took still count); without, the newest. If the pick collides with
     such a value, the newest usable one. -1 when there is none. *)
  let pick args n_borrows i et =
    let count = ref 0 in
    for v = 0 to !n_values - 1 do
      if ty.(v) = et then incr count
    done;
    if !count = 0 then -1
    else begin
      let k = match rng with None -> 0 | Some rng -> Nyx_sim.Rng.int rng !count in
      let v = ref !n_values and seen = ref (-1) in
      while !seen < k do
        decr v;
        if ty.(!v) = et then incr seen
      done;
      if usable args n_borrows i et !v then !v
      else begin
        let v = ref (!n_values - 1) in
        while !v >= 0 && not (usable args n_borrows i et !v) do
          decr v
        done;
        !v
      end
    end
  in
  (* The output shares [ops] until the first op that differs from the
     input at its position. *)
  let out = ref ops and n_out = ref 0 in
  let emit op =
    if !out == ops && op != ops.(!n_out) then out := Array.copy ops;
    if !out != ops then !out.(!n_out) <- op;
    incr n_out
  in
  let snapshot_seen = ref false in
  for opi = 0 to n_ops - 1 do
    let op = ops.(opi) in
    (* Unknown opcodes and every snapshot opcode after the first are
       dropped; neither binds nor produces a value. *)
    if known op && not (op.node = Spec.snapshot_node_id && !snapshot_seen) then begin
      let nt = Spec.node t.spec op.node in
      let n_borrows = List.length nt.Spec.borrows in
      let n_in = n_borrows + List.length nt.Spec.consumes in
      let cur = op.args in
      let n_cur = Array.length cur in
      (* Keep current bindings while they are usable. *)
      let kept = ref 0 in
      while
        !kept < n_in && !kept < n_cur
        && usable cur n_borrows !kept (slot_ty nt n_borrows !kept) cur.(!kept)
      do
        incr kept
      done;
      let args, filled =
        if !kept = n_in && n_cur = n_in then (cur, n_in)
        else begin
          let args = Array.make n_in 0 in
          Array.blit cur 0 args 0 !kept;
          (* Rebind from the first broken slot on, stopping at the first
             slot nothing can fill: the op is then dropped. *)
          let i = ref !kept in
          while
            !i < n_in
            &&
            let et = slot_ty nt n_borrows !i in
            let current = if !i < n_cur then cur.(!i) else -1 in
            let v =
              if usable args n_borrows !i et current then current
              else pick args n_borrows !i et
            in
            v >= 0
            && begin
                 args.(!i) <- v;
                 incr i;
                 true
               end
          do
            ()
          done;
          (args, !i)
        end
      in
      if filled = n_in then begin
        for j = n_borrows to n_in - 1 do
          ty.(args.(j)) <- -1
        done;
        n_values := push_outputs ty !n_values nt.Spec.outputs;
        if op.node = Spec.snapshot_node_id then snapshot_seen := true;
        let data = if data_fits op.data 0 nt.Spec.data then op.data else fit_data nt op.data in
        emit (if args == cur && data == op.data then op else { node = op.node; args; data })
      end
    end
  done;
  if !out == ops && !n_out = n_ops then t
  else { t with ops = (if !n_out = Array.length !out then !out else Array.sub !out 0 !n_out) }

(* Wire format *)

let magic = "NYXB1"

let serialize t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  let add_u32 v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))
  in
  let add_u16 v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))
  in
  add_u32 (Array.length t.ops);
  Array.iter
    (fun op ->
      add_u16 op.node;
      Buffer.add_char buf (Char.chr (Array.length op.args land 0xff));
      Array.iter add_u32 op.args;
      Buffer.add_char buf (Char.chr (Array.length op.data land 0xff));
      Array.iter
        (fun d ->
          add_u32 (Bytes.length d);
          Buffer.add_bytes buf d)
        op.data)
    t.ops;
  Buffer.to_bytes buf

let parse spec b =
  let exception Bad of string in
  let pos = ref 0 in
  let len = Bytes.length b in
  let u8 () =
    if !pos >= len then raise (Bad "truncated");
    let v = Char.code (Bytes.get b !pos) in
    incr pos;
    v
  in
  let u16 () = let lo = u8 () in lo lor (u8 () lsl 8) in
  let u32 () =
    let a = u8 () in
    let b' = u8 () in
    let c = u8 () in
    let d = u8 () in
    a lor (b' lsl 8) lor (c lsl 16) lor (d lsl 24)
  in
  try
    if len < String.length magic || Bytes.sub_string b 0 (String.length magic) <> magic
    then raise (Bad "bad magic");
    pos := String.length magic;
    let n_ops = u32 () in
    if n_ops > 1_000_000 then raise (Bad "unreasonable op count");
    let ops =
      Array.init n_ops (fun _ ->
          let node = u16 () in
          let nargs = u8 () in
          let args = Array.init nargs (fun _ -> u32 ()) in
          let ndata = u8 () in
          let data =
            Array.init ndata (fun _ ->
                let dlen = u32 () in
                if !pos + dlen > len then raise (Bad "truncated data");
                let d = Bytes.sub b !pos dlen in
                pos := !pos + dlen;
                d)
          in
          { node; args; data })
    in
    if !pos <> len then raise (Bad "trailing bytes");
    let t = { spec; ops } in
    match validate t with Ok () -> Ok t | Error m -> Error m
  with Bad m -> Error m

let pp ppf t =
  Array.iteri
    (fun i op ->
      let nt = Spec.node t.spec op.node in
      let args = String.concat ", " (List.map string_of_int (Array.to_list op.args)) in
      let data =
        String.concat " "
          (List.map
             (fun d ->
               let s = Bytes.to_string d in
               let printable =
                 String.map (fun c -> if c >= ' ' && c < '\127' then c else '.') s
               in
               Printf.sprintf "%S" (if String.length printable > 40
                                    then String.sub printable 0 40 ^ "..."
                                    else printable))
             (Array.to_list op.data))
      in
      Format.fprintf ppf "%3d: %s(%s) %s@." i nt.Spec.nt_name args data)
    t.ops
