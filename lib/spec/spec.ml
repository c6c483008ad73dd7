type edge_ty = { et_id : int; et_name : string }
type data_ty = { dt_id : int; dt_name : string; max_len : int }

type node_ty = {
  nt_id : int;
  nt_name : string;
  borrows : edge_ty list;
  consumes : edge_ty list;
  outputs : edge_ty list;
  data : data_ty list;
  slot_ids : int array;
  n_borrows : int;
  output_ids : int array;
  n_data : int;
}

type t = { name : string; node_arr : node_ty array }

let snapshot_node_id = 0

type builder = {
  b_name : string;
  mutable rev_nodes : node_ty list;
  mutable next_edge : int;
  mutable next_data : int;
  mutable next_node : int;
}

let edge_ids edges = Array.of_list (List.map (fun e -> e.et_id) edges)

let make_node nt_id nt_name ~borrows ~consumes ~outputs ~data =
  {
    nt_id;
    nt_name;
    borrows;
    consumes;
    outputs;
    data;
    slot_ids = edge_ids (borrows @ consumes);
    n_borrows = List.length borrows;
    output_ids = edge_ids outputs;
    n_data = List.length data;
  }

let snapshot_ty = make_node 0 "snapshot" ~borrows:[] ~consumes:[] ~outputs:[] ~data:[]

let start name =
  { b_name = name; rev_nodes = [ snapshot_ty ]; next_edge = 0; next_data = 0; next_node = 1 }

let edge_type b et_name =
  let e = { et_id = b.next_edge; et_name } in
  b.next_edge <- b.next_edge + 1;
  e

let data_type b ?(max_len = 4096) dt_name =
  let d = { dt_id = b.next_data; dt_name; max_len } in
  b.next_data <- b.next_data + 1;
  d

let node_type b ?(borrows = []) ?(consumes = []) ?(outputs = []) ?(data = []) nt_name =
  let n = make_node b.next_node nt_name ~borrows ~consumes ~outputs ~data in
  b.next_node <- b.next_node + 1;
  b.rev_nodes <- n :: b.rev_nodes;
  n

let finalize b = { name = b.b_name; node_arr = Array.of_list (List.rev b.rev_nodes) }

let name t = t.name

let node t id =
  if id < 0 || id >= Array.length t.node_arr then
    invalid_arg (Printf.sprintf "Spec.node: unknown node type %d" id);
  t.node_arr.(id)

let node_by_name t n =
  match Array.find_opt (fun nt -> nt.nt_name = n) t.node_arr with
  | Some nt -> nt
  | None -> raise Not_found

let nodes t = Array.copy t.node_arr
let node_count t = Array.length t.node_arr
let snapshot_node t = t.node_arr.(0)
