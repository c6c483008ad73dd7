open Nyx_sim

(* Pick a node type for fresh-op append: any node but the snapshot
   opcode, which is always node 0. *)
let random_node rng spec =
  let n = Spec.node_count spec in
  if n <= 1 then None else Some (Spec.node spec (1 + Rng.int rng (n - 1)))

let fresh_op rng spec =
  match random_node rng spec with
  | None -> None
  | Some nt ->
    let data =
      Array.of_list
        (List.map
           (fun (dt : Spec.data_ty) ->
             Rng.bytes rng (Rng.int rng (min 64 (dt.Spec.max_len + 1))))
           nt.Spec.data)
    in
    (* Args are placeholders; repair binds them to real values. *)
    Some { Program.node = nt.Spec.nt_id; args = Array.make (Array.length nt.Spec.slot_ids) 0; data }

let havoc_op rng dict (op : Program.op) spec =
  let nt = Spec.node spec op.Program.node in
  if Array.length op.Program.data = 0 then op
  else begin
    let i = Rng.int rng (Array.length op.Program.data) in
    let dt = List.nth nt.Spec.data i in
    let data = Array.copy op.Program.data in
    data.(i) <- Havoc.mutate rng ~dict ~max_len:dt.Spec.max_len data.(i);
    { op with Program.data }
  end

let is_snapshot (op : Program.op) = op.Program.node = Spec.snapshot_node_id

(* [Array.sub a pos len] without the snapshot ops. *)
let sub_without_snapshots a pos len =
  let n = ref 0 in
  for j = pos to pos + len - 1 do
    if not (is_snapshot a.(j)) then incr n
  done;
  if !n = len then Array.sub a pos len
  else begin
    let out = Array.make !n a.(pos) and k = ref 0 in
    for j = pos to pos + len - 1 do
      if not (is_snapshot a.(j)) then begin
        out.(!k) <- a.(j);
        incr k
      end
    done;
    out
  end

(* [a] with [x] inserted at [i]. *)
let insert a i x =
  let n = Array.length a in
  let out = Array.make (n + 1) x in
  Array.blit a 0 out 0 i;
  Array.blit a i out (i + 1) (n - i);
  out

(* [a] without element [i]. *)
let remove a i =
  let n = Array.length a in
  let out = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) out i (n - 1 - i);
  out

(* The first [keep] ops of [a], then the non-snapshot ops of [donor] from
   the [from]-th one on. *)
let splice a keep donor from =
  let rest = ref 0 and start = ref (Array.length donor) and seen = ref 0 in
  for j = 0 to Array.length donor - 1 do
    if not (is_snapshot donor.(j)) then begin
      if !seen = from then start := j;
      if !seen >= from then incr rest;
      incr seen
    end
  done;
  if keep + !rest = 0 then [||]
  else begin
    let out = Array.make (keep + !rest) (if keep > 0 then a.(0) else donor.(!start)) in
    Array.blit a 0 out 0 keep;
    let k = ref keep in
    for j = !start to Array.length donor - 1 do
      if not (is_snapshot donor.(j)) then begin
        out.(!k) <- donor.(j);
        incr k
      end
    done;
    out
  end

let mutate rng ?(frozen = 0) ?(max_ops = 24) ?(dict = []) ?(corpus = [||]) (p : Program.t) =
  let all = p.Program.ops in
  let frozen = min frozen (Array.length all) in
  (* The mutable region, without stray snapshot ops (policies re-inject
     them). Every array it holds is fresh, so havoc and swap edit it in
     place; the other edits build the next array directly. *)
  let suffix = ref (sub_without_snapshots all frozen (Array.length all - frozen)) in
  let n_rounds = 1 + Rng.int rng 4 in
  for _ = 1 to n_rounds do
    let ops = !suffix in
    let n = Array.length ops in
    match
      Rng.weighted rng
        [ (`Havoc, 5.0); (`Dup, 1.0); (`Del, 1.0); (`Swap, 1.0); (`Splice, 1.5); (`Append, 1.0) ]
    with
    | `Havoc when n > 0 ->
      let i = Rng.int rng n in
      ops.(i) <- havoc_op rng dict ops.(i) p.Program.spec
    | `Dup when n > 0 ->
      let i = Rng.int rng n in
      suffix := insert ops i ops.(i)
    | `Del when n > 1 -> suffix := remove ops (Rng.int rng n)
    | `Swap when n > 1 ->
      let i = Rng.int rng (n - 1) in
      let a = ops.(i) in
      ops.(i) <- ops.(i + 1);
      ops.(i + 1) <- a
    | `Splice when Array.length corpus > 0 ->
      let donor = (Rng.choose rng corpus).Program.ops in
      let keep = if n = 0 then 0 else Rng.int rng (n + 1) in
      let dlen = Array.fold_left (fun c op -> if is_snapshot op then c else c + 1) 0 donor in
      let from = if dlen = 0 then 0 else Rng.int rng dlen in
      suffix := splice ops keep donor from
    | `Append -> (
      match fresh_op rng p.Program.spec with
      | Some op -> suffix := insert ops n op
      | None -> ())
    | _ -> ()
  done;
  (* Cap total length: keep the frozen prefix, trim the suffix tail. *)
  let k = min (Array.length !suffix) (max 0 (max_ops - frozen)) in
  let ops =
    if frozen + k = 0 then [||]
    else begin
      let ops = Array.make (frozen + k) (if frozen > 0 then all.(0) else !suffix.(0)) in
      Array.blit all 0 ops 0 frozen;
      Array.blit !suffix 0 ops frozen k;
      ops
    end
  in
  Program.repair ~rng { p with Program.ops }
