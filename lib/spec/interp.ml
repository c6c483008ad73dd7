type handlers = {
  exec : Spec.node_ty -> int list -> bytes array -> int list;
  snapshot : unit -> unit;
}

type env = {
  mutable values : int array;
  mutable n : int;
  mutable consumed : Bytes.t option;
      (* [Some flags] iff the sanitizer is armed for this environment;
         flags.(i) <> '\000' marks value i as consumed. Lives in the env —
         not the interpreter — so the prefix/suffix split across snapshots
         carries the affine state with [copy_env]. *)
}

exception Violation of { op : int; code : string; detail : string }

let () =
  Printexc.register_printer (function
    | Violation { op; code; detail } ->
      Some (Printf.sprintf "Interp.Violation(op %d, %s: %s)" op code detail)
    | _ -> None)

let sanitize_default = Nyx_sim.Sanitize.armed

let total_outputs p =
  Array.fold_left
    (fun acc (op : Program.op) ->
      acc + Array.length (Spec.node p.Program.spec op.node).Spec.output_ids)
    0 p.Program.ops

let initial_env ?(sanitize = sanitize_default) p =
  let cap = max 1 (total_outputs p) in
  {
    values = Array.make cap 0;
    n = 0;
    consumed = (if sanitize then Some (Bytes.make cap '\000') else None);
  }

let copy_env e =
  { values = Array.copy e.values; n = e.n; consumed = Option.map Bytes.copy e.consumed }

(* [dst] becomes what [copy_env src] would give, without allocating when
   [dst] is large enough: the first [src.n] values (and consumed flags)
   are copied, and the slots [dst]'s last run filled beyond them are
   zeroed, as they are in [src]. *)
let blit_env ~src ~dst =
  let n = src.n in
  (match (src.consumed, dst.consumed) with
  | None, None when Array.length dst.values >= n ->
    Array.blit src.values 0 dst.values 0 n;
    if dst.n > n then Array.fill dst.values n (dst.n - n) 0
  | Some f, Some g when Array.length dst.values >= n ->
    Array.blit src.values 0 dst.values 0 n;
    Bytes.blit f 0 g 0 n;
    if dst.n > n then begin
      Array.fill dst.values n (dst.n - n) 0;
      Bytes.fill g n (dst.n - n) '\000'
    end
  | _ ->
    dst.values <- Array.copy src.values;
    dst.consumed <- Option.map Bytes.copy src.consumed);
  dst.n <- n

let snapshot_op_index (p : Program.t) =
  let rec scan i =
    if i >= Array.length p.ops then None
    else if p.ops.(i).Program.node = Spec.snapshot_node_id then Some i
    else scan (i + 1)
  in
  scan 0

let push env v =
  if env.n >= Array.length env.values then begin
    let cap = max 8 (2 * Array.length env.values) in
    let bigger = Array.make cap 0 in
    Array.blit env.values 0 bigger 0 env.n;
    env.values <- bigger;
    match env.consumed with
    | Some flags ->
      let bigger_flags = Bytes.make cap '\000' in
      Bytes.blit flags 0 bigger_flags 0 env.n;
      env.consumed <- Some bigger_flags
    | None -> ()
  end;
  env.values.(env.n) <- v;
  env.n <- env.n + 1

(* Runtime assertions of the verifier's facts (sanitizer mode). These are
   conditions [Program.validate] + the mutator's invariants should make
   unreachable; a Violation here means a bug upstream, not a bad input. *)
let sanitize_check env i (op : Program.op) (nt : Spec.node_ty) flags =
  let fail code detail = raise (Violation { op = i; code; detail }) in
  if nt.Spec.nt_id = Spec.snapshot_node_id then begin
    if Array.length op.Program.args <> 0 || Array.length op.Program.data <> 0 then
      fail "snapshot-carries-payload" "snapshot opcode with arguments or data"
  end
  else begin
    let n_borrows = nt.Spec.n_borrows in
    let expected = Array.length nt.Spec.slot_ids in
    if Array.length op.Program.args <> expected then
      fail "bad-arity"
        (Printf.sprintf "%s expects %d argument(s), got %d" nt.Spec.nt_name expected
           (Array.length op.Program.args));
    Array.iteri
      (fun slot idx ->
        if idx < 0 || idx >= env.n then
          fail "dangling-arg"
            (Printf.sprintf "%s argument %d references value %d; %d value(s) exist"
               nt.Spec.nt_name slot idx env.n);
        if Bytes.get flags idx <> '\000' then
          fail "affine-use-after-consume"
            (Printf.sprintf "%s argument %d reuses consumed value %d" nt.Spec.nt_name
               slot idx);
        if slot >= n_borrows then Bytes.set flags idx '\001')
      op.Program.args
  end

(* The op's input values, built from the last argument back: one cons
   cell per argument and nothing else. *)
let rec inputs values args i acc =
  if i < 0 then acc else inputs values args (i - 1) (values.(args.(i)) :: acc)

let rec push_all env = function
  | [] -> ()
  | v :: rest ->
    push env v;
    push_all env rest

let exec_op (p : Program.t) h env i =
  let op = p.ops.(i) in
  let nt = Spec.node p.spec op.Program.node in
  (match env.consumed with
  | Some flags -> sanitize_check env i op nt flags
  | None -> ());
  if nt.Spec.nt_id = Spec.snapshot_node_id then h.snapshot ()
  else begin
    let args = op.Program.args in
    let outputs =
      h.exec nt (inputs env.values args (Array.length args - 1) []) op.Program.data
    in
    if List.length outputs <> Array.length nt.Spec.output_ids then
      invalid_arg (Printf.sprintf "Interp: handler for %s returned wrong output count"
                     nt.Spec.nt_name);
    push_all env outputs
  end

let run ?sanitize ?(from = 0) ?until ?env (p : Program.t) h =
  let env = match env with Some e -> e | None -> initial_env ?sanitize p in
  let stop =
    match until with
    | None -> Array.length p.ops
    | Some u -> min u (Array.length p.ops)
  in
  for i = from to stop - 1 do
    exec_op p h env i
  done;
  env

let run_until_snapshot ?sanitize (p : Program.t) h =
  match snapshot_op_index p with
  | None -> None
  | Some snap ->
    let env = initial_env ?sanitize p in
    for i = 0 to snap do
      exec_op p h env i
    done;
    Some (snap + 1, env)
