type op = { node : int; args : int array; data : bytes array }
type t = { spec : Spec.t; ops : op array }

let op_inputs (nt : Spec.node_ty) = nt.Spec.borrows @ nt.Spec.consumes

let validate t =
  let open Spec in
  let exception Bad of string in
  try
    let value_types = ref [] (* newest first: (index, edge_ty, consumed ref) *) in
    let n_values = ref 0 in
    let snapshots = ref 0 in
    Array.iteri
      (fun opi op ->
        let nt =
          try Spec.node t.spec op.node
          with Invalid_argument m -> raise (Bad m)
        in
        if nt.nt_id = Spec.snapshot_node_id then begin
          incr snapshots;
          if !snapshots > 1 then raise (Bad "multiple snapshot opcodes");
          if Array.length op.args <> 0 || Array.length op.data <> 0 then
            raise (Bad "snapshot opcode carries no args or data")
        end;
        let inputs = op_inputs nt in
        if Array.length op.args <> List.length inputs then
          raise (Bad (Printf.sprintf "op %d (%s): wrong arity" opi nt.nt_name));
        List.iteri
          (fun i expected ->
            let idx = op.args.(i) in
            if idx < 0 || idx >= !n_values then
              raise (Bad (Printf.sprintf "op %d (%s): arg %d out of range" opi nt.nt_name i));
            let _, ty, consumed =
              List.find (fun (v, _, _) -> v = idx) !value_types
            in
            if !consumed then
              raise (Bad (Printf.sprintf "op %d (%s): value %d already consumed" opi nt.nt_name idx));
            if ty.et_id <> expected.et_id then
              raise
                (Bad
                   (Printf.sprintf "op %d (%s): arg %d has type %s, expected %s" opi
                      nt.nt_name i ty.et_name expected.et_name)))
          inputs;
        (* Mark consumed inputs. *)
        let n_borrows = List.length nt.borrows in
        List.iteri
          (fun i _ ->
            let idx = op.args.(n_borrows + i) in
            let _, _, consumed = List.find (fun (v, _, _) -> v = idx) !value_types in
            consumed := true)
          nt.consumes;
        if Array.length op.data <> List.length nt.data then
          raise (Bad (Printf.sprintf "op %d (%s): wrong data field count" opi nt.nt_name));
        List.iteri
          (fun i dt ->
            if Bytes.length op.data.(i) > dt.max_len then
              raise
                (Bad (Printf.sprintf "op %d (%s): data field %d too long" opi nt.nt_name i)))
          nt.data;
        List.iter
          (fun ty ->
            value_types := (!n_values, ty, ref false) :: !value_types;
            incr n_values)
          nt.outputs)
      t.ops;
    Ok ()
  with Bad m -> Error m

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
  { t with ops = Array.of_seq (Seq.filter (fun op -> op.node <> Spec.snapshot_node_id)
                                 (Array.to_seq t.ops)) }

let with_snapshot_at t i =
  let t = strip_snapshots t in
  let i = max 0 (min i (Array.length t.ops)) in
  let snap = { node = Spec.snapshot_node_id; args = [||]; data = [||] } in
  let ops =
    Array.concat [ Array.sub t.ops 0 i; [| snap |]; Array.sub t.ops i (Array.length t.ops - i) ]
  in
  { t with ops }

(* Repair helpers. Each takes its operands as arguments rather than
   closing over them, so calling one allocates nothing. *)

(* Edge-type id of input slot [i]: the borrows come first, then the
   consumes. *)
let slot_ty (nt : Spec.node_ty) n_borrows i =
  (if i < n_borrows then List.nth nt.Spec.borrows i
   else List.nth nt.Spec.consumes (i - n_borrows))
    .Spec.et_id

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

let rec push_outputs ty n = function
  | [] -> n
  | (et : Spec.edge_ty) :: rest ->
    ty.(n) <- et.Spec.et_id;
    push_outputs ty (n + 1) rest

(* One pass over the ops and an int value table: [ty.(v)] is the edge-type
   id of output value [v], or -1 once [v] is consumed. Values are numbered
   in output order, so "newest first" means highest index first. An op
   whose bindings are all usable and whose data fit is kept physically;
   only the ops that change, and the ops array when one does, are new. *)
let repair ?rng t =
  let ops = t.ops in
  let n_ops = Array.length ops in
  let n_nodes = Spec.node_count t.spec in
  let known op = op.node >= 0 && op.node < n_nodes in
  let cap = ref 0 in
  for i = 0 to n_ops - 1 do
    if known ops.(i) then
      cap := !cap + List.length (Spec.node t.spec ops.(i).node).Spec.outputs
  done;
  let ty = Array.make !cap (-1) in
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
