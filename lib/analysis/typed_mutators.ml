(* Typed splicing + spec-driven generation over the affine IR. *)

open Nyx_sim
open Nyx_spec

let snap = Spec.snapshot_node_id

(* Non-snapshot node types the mutator can ever assemble the inputs of
   (the Spec_lint constructibility fixpoint, shared with State_graph). *)
let usable_nodes spec =
  let nodes = Spec.nodes spec in
  let constructible, _ = Spec_lint.constructible_nodes nodes in
  List.filter
    (fun (nt : Spec.node_ty) -> nt.Spec.nt_id <> snap && constructible.(nt.Spec.nt_id))
    (Array.to_list nodes)

let generative spec = List.length (usable_nodes spec) > 1

(* Repair the affine environment, then verify offline: only clean
   candidates ever reach the executor. *)
let finish rng (p : Program.t) ops =
  let cand = Program.repair ~rng { p with Program.ops } in
  if Array.length cand.Program.ops = 0 then None
  else if Verifier.is_clean cand then Some cand
  else None

(* ------------------------------------------------------------------ *)
(* Splice: cut at state_path-compatible points.                        *)

(* Indices [j < len] of [a] with [a.(j) = m]: how many from [j] on,
   plus [acc]; and the [k]-th of them from [j] on. *)
let rec count_eq (a : int array) len m j acc =
  if j >= len then acc else count_eq a len m (j + 1) (if a.(j) = m then acc + 1 else acc)

let rec nth_eq (a : int array) m k j =
  if a.(j) <> m then nth_eq a m k (j + 1) else if k = 0 then j else nth_eq a m (k - 1) (j + 1)

let splice rng (ctx : Mutation_engine.ctx) (p : Program.t) =
  if Array.length ctx.mx_corpus = 0 then None
  else begin
    let n = Array.length p.Program.ops in
    let frozen = min ctx.mx_frozen n in
    let donor = Program.strip_snapshots (Rng.choose rng ctx.mx_corpus) in
    let dlen = Array.length donor.Program.ops in
    if dlen = 0 then None
    else begin
      let sa = Dataflow.state_path p and sb = Dataflow.state_path donor in
      (* Compatible cut pairs (i, j), i in [frozen, n], j in [0, dlen):
         the abstract state after the kept prefix equals the state the
         donor suffix was built in, so every edge type the graft needs
         has at least one live value for repair to bind. The graft must
         be nonempty. Pairs are ordered by i, then j: count them, draw
         one, and walk to it. *)
      let pairs = ref 0 in
      for i = frozen to n do
        pairs := count_eq sb dlen sa.(i) 0 !pairs
      done;
      if !pairs = 0 then None
      else begin
        let k = ref (Rng.int rng !pairs) and i = ref frozen in
        let at_i = ref (count_eq sb dlen sa.(frozen) 0 0) in
        while !k >= !at_i do
          k := !k - !at_i;
          incr i;
          at_i := count_eq sb dlen sa.(!i) 0 0
        done;
        let i = !i in
        let j = nth_eq sb sa.(i) !k 0 in
        (* The prefix, then the donor suffix, capped to [mx_max_ops] ops
           (the frozen prefix always fits: frozen <= original length <=
           max_ops). *)
        let len = min (i + dlen - j) ctx.mx_max_ops in
        let ops = Array.make len donor.Program.ops.(j) in
        Array.blit p.Program.ops 0 ops 0 (min i len);
        if len > i then Array.blit donor.Program.ops j ops i (len - i);
        finish rng p ops
      end
    end
  end

let splice_mutator =
  { Mutation_engine.m_name = "splice"; m_base = 1.0; m_fn = splice }

(* ------------------------------------------------------------------ *)
(* Generate: concrete walk over the constructible-opcode transitions.  *)

(* A usable node type with what a walk needs to know about it, computed
   once per spec. *)
type gnode = {
  g_nt : Spec.node_ty;
  g_needs : int array;
      (* flattened (edge-type id, live values needed) pairs: borrows may
         share a value, consumes need distinct ones *)
  g_out_mask : int;  (* the edge types it outputs *)
}

type walker = {
  w_nodes : gnode array;  (* in node-id order *)
  w_types : int;  (* 1 + the largest edge-type id of the spec *)
  w_max_out : int;  (* most outputs of one usable node *)
  w_reachable : int array;  (* nonzero reachable abstract states *)
}

let gnode (nt : Spec.node_ty) =
  let ids = List.map (fun (e : Spec.edge_ty) -> e.Spec.et_id) in
  let borrows = ids nt.Spec.borrows and consumes = ids nt.Spec.consumes in
  let need et =
    max (List.length (List.filter (( = ) et) consumes)) (if List.mem et borrows then 1 else 0)
  in
  {
    g_nt = nt;
    g_needs =
      Array.of_list
        (List.concat_map (fun et -> [ et; need et ]) (List.sort_uniq compare (borrows @ consumes)));
    g_out_mask = Array.fold_left (fun m et -> m lor (1 lsl et)) 0 nt.Spec.output_ids;
  }

(* The affine environment of a walk: a value table ([ty.(v)] = edge-type
   id of value [v], -1 once consumed; newest = highest index) and the
   live values per edge type. *)
type env = { ty : int array; live : int array; mutable n_values : int }

let consume env v =
  if v >= 0 && v < env.n_values && env.ty.(v) >= 0 then begin
    env.live.(env.ty.(v)) <- env.live.(env.ty.(v)) - 1;
    env.ty.(v) <- -1
  end

let push env outs =
  for k = 0 to Array.length outs - 1 do
    let et = outs.(k) in
    env.ty.(env.n_values) <- et;
    env.live.(et) <- env.live.(et) + 1;
    env.n_values <- env.n_values + 1
  done

(* Replay the first [frozen] ops of [p] (assumed valid) to seed the
   environment with the prefix's live values, mirroring
   Program.validate's accounting; room for [extra] more values. *)
let env_of_prefix w (p : Program.t) frozen extra =
  let spec = p.Program.spec and ops = p.Program.ops in
  let cap = ref extra in
  for i = 0 to frozen - 1 do
    cap := !cap + Array.length (Spec.node spec ops.(i).Program.node).Spec.output_ids
  done;
  let env = { ty = Array.make !cap (-1); live = Array.make w.w_types 0; n_values = 0 } in
  for i = 0 to frozen - 1 do
    let op = ops.(i) in
    let nt = Spec.node spec op.Program.node in
    for slot = nt.Spec.n_borrows to Array.length nt.Spec.slot_ids - 1 do
      consume env op.Program.args.(slot)
    done;
    push env nt.Spec.output_ids
  done;
  env

let live_mask w env =
  let m = ref 0 in
  for et = 0 to w.w_types - 1 do
    if env.live.(et) > 0 then m := !m lor (1 lsl et)
  done;
  !m

(* A node is enabled when every input type has enough live values: the
   needs of [g] from pair [k] on are met. *)
let rec needs_met env g k =
  k >= Array.length g.g_needs
  || (env.live.(g.g_needs.(k)) >= g.g_needs.(k + 1) && needs_met env g (k + 2))

(* Nodes a step may pick: enabled ones that output a type of [missing],
   or every enabled one when [missing < 0]. How many, and the [k]-th. *)
let eligible env missing g =
  needs_met env g 0 && (missing < 0 || g.g_out_mask land missing <> 0)

let count_eligible w env missing =
  let c = ref 0 in
  for i = 0 to Array.length w.w_nodes - 1 do
    if eligible env missing w.w_nodes.(i) then incr c
  done;
  !c

let rec nth_eligible w env missing k i =
  let g = w.w_nodes.(i) in
  if not (eligible env missing g) then nth_eligible w env missing k (i + 1)
  else if k = 0 then g
  else nth_eligible w env missing (k - 1) (i + 1)

(* [v] is bound in one of the slots [j, i) of [args]. *)
let rec bound_in args v j i = j < i && (args.(j) = v || bound_in args v (j + 1) i)

(* The [k]-th live value of type [et], from [v] down, that no earlier
   consume slot of the op (slots [n_borrows, i) of [args]) took. *)
let rec nth_newest env et args n_borrows i k v =
  if env.ty.(v) <> et || bound_in args v n_borrows i then
    nth_newest env et args n_borrows i k (v - 1)
  else if k = 0 then v
  else nth_newest env et args n_borrows i (k - 1) (v - 1)

let data_field rng dict (dt : Spec.data_ty) =
  if dict <> [] && Rng.chance rng 0.5 then begin
    let tok = Rng.choose_list rng dict in
    if Bytes.length tok > dt.Spec.max_len then Bytes.sub tok 0 dt.Spec.max_len else tok
  end
  else Rng.bytes rng (Rng.int rng (min 64 (dt.Spec.max_len + 1)))

let rec fill_data rng dict data i = function
  | [] -> ()
  | dt :: rest ->
    data.(i) <- data_field rng dict dt;
    fill_data rng dict data (i + 1) rest

(* Bind one op of node [g] against the environment and advance it. Each
   slot draws once over its candidates, newest first; a consume slot's
   candidates exclude the values earlier consume slots took. *)
let emit rng dict env g =
  let nt = g.g_nt in
  let slots = nt.Spec.slot_ids and n_borrows = nt.Spec.n_borrows in
  let n_in = Array.length slots in
  let args = Array.make n_in 0 in
  for i = 0 to n_in - 1 do
    let et = slots.(i) in
    let taken = ref 0 in
    for j = n_borrows to i - 1 do
      if slots.(j) = et then incr taken
    done;
    let k = Rng.int rng (env.live.(et) - !taken) in
    args.(i) <- nth_newest env et args n_borrows i k (env.n_values - 1)
  done;
  for i = n_borrows to n_in - 1 do
    consume env args.(i)
  done;
  let data = Array.make nt.Spec.n_data Bytes.empty in
  fill_data rng dict data 0 nt.Spec.data;
  push env nt.Spec.output_ids;
  { Program.node = nt.Spec.nt_id; args; data }

(* Stands in for the ops a walk has not emitted yet. *)
let placeholder = { Program.node = Spec.snapshot_node_id; args = [||]; data = [||] }

let generate w rng (ctx : Mutation_engine.ctx) (p : Program.t) =
  let frozen = min ctx.mx_frozen (Array.length p.Program.ops) in
  let room = ctx.mx_max_ops - frozen in
  if room <= 0 then None
  else begin
    (* Half the walks steer toward a random reachable abstract state (a
       state-reaching prefix for later mutation rounds to build on);
       the other half wander freely (target -1). *)
    let target =
      if Array.length w.w_reachable > 0 && Rng.bool rng then Rng.choose rng w.w_reachable
      else -1
    in
    let len = 1 + Rng.int rng room in
    let env = env_of_prefix w p frozen (len * w.w_max_out) in
    let out = Array.make (frozen + len) placeholder in
    Array.blit p.Program.ops 0 out 0 frozen;
    let n = ref 0 and stuck = ref false in
    while (not !stuck) && !n < len do
      let n_en = count_eligible w env (-1) in
      if n_en = 0 then stuck := true
      else begin
        let missing = if target < 0 then 0 else target land lnot (live_mask w env) in
        let n_prod = if target < 0 then 0 else count_eligible w env missing in
        let g =
          if n_prod > 0 && Rng.chance rng 0.75 then
            nth_eligible w env missing (Rng.int rng n_prod) 0
          else nth_eligible w env (-1) (Rng.int rng n_en) 0
        in
        out.(frozen + !n) <- emit rng ctx.mx_dict env g;
        incr n
      end
    done;
    if !n = 0 then None
    else finish rng p (if !n = len then out else Array.sub out 0 (frozen + !n))
  end

let generate_mutator spec =
  if not (generative spec) then
    invalid_arg
      (Printf.sprintf
         "Typed_mutators.generate_mutator: spec %S is dynamic-degenerate \
          (single constructible opcode); use the havoc fallback"
         (Spec.name spec));
  let usable = usable_nodes spec in
  let graph = State_graph.build spec in
  let edges (nt : Spec.node_ty) = nt.Spec.borrows @ nt.Spec.consumes @ nt.Spec.outputs in
  let w =
    {
      w_nodes = Array.of_list (List.map gnode usable);
      w_types =
        Array.fold_left
          (fun n nt -> List.fold_left (fun n (e : Spec.edge_ty) -> max n (e.Spec.et_id + 1)) n (edges nt))
          0 (Spec.nodes spec);
      w_max_out =
        List.fold_left (fun n (nt : Spec.node_ty) -> max n (Array.length nt.Spec.output_ids)) 0 usable;
      (* Exclude the empty start state: reaching it requires no prefix. *)
      w_reachable =
        Array.of_list (List.filter (fun m -> m <> 0) (State_graph.reachable graph));
    }
  in
  { Mutation_engine.m_name = "generate"; m_base = 0.35; m_fn = generate w }

let mutators spec =
  let base = [ Mutation_engine.havoc_mutator; splice_mutator ] in
  if generative spec then base @ [ generate_mutator spec ] else base
