open Nyx_spec

(* Abstract value: everything the lattice needs about one produced value.
   A value starts Available when its producer op executes and moves to
   Consumed at most once; [uses]/[consumed_at] record the provenance chain
   reported with affine violations and dead-value warnings. *)
type absval = {
  ty : Spec.edge_ty;
  producer : int; (* op index that output this value *)
  mutable uses : int list; (* op indices that borrowed it, newest first *)
  mutable consumed_at : int option;
}

let op_site i = Printf.sprintf "op %d" i

(* Hotspot threshold: a data field that saturates a generous bound leaves
   the mutator no growth headroom. Tiny bounds (mode bytes, slot hints)
   are saturated by design and stay quiet. *)
let hotspot_min_bound = 8

let check (p : Program.t) : Diag.t list =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let values : absval array = Array.make 16 { ty = { Spec.et_id = -1; et_name = "" }; producer = -1; uses = []; consumed_at = None } in
  let values = ref values in
  let n_values = ref 0 in
  let push v =
    if !n_values >= Array.length !values then begin
      let bigger = Array.make (2 * Array.length !values) v in
      Array.blit !values 0 bigger 0 !n_values;
      values := bigger
    end;
    !values.(!n_values) <- v;
    incr n_values
  in
  let snapshot_seen = ref false in
  let n_ops = Array.length p.Program.ops in
  Array.iteri
    (fun opi (op : Program.op) ->
      match Spec.node p.Program.spec op.Program.node with
      | exception Invalid_argument _ ->
        emit
          (Diag.error ~code:"unknown-opcode" ~site:(op_site opi)
             (Printf.sprintf "node type %d is not declared by spec %S" op.Program.node
                (Spec.name p.Program.spec)))
      | nt ->
        let name = nt.Spec.nt_name in
        if nt.Spec.nt_id = Spec.snapshot_node_id then begin
          if !snapshot_seen then
            emit
              (Diag.error ~code:"multiple-snapshots" ~site:(op_site opi)
                 "second snapshot opcode: at most one incremental snapshot per program");
          snapshot_seen := true;
          if Array.length op.Program.args <> 0 || Array.length op.Program.data <> 0 then
            emit
              (Diag.error ~code:"snapshot-carries-payload" ~site:(op_site opi)
                 "the snapshot opcode takes no arguments and carries no data");
          (* Degenerate placements: an incremental snapshot of an empty
             prefix restores nothing the root snapshot does not already
             give us; a snapshot with an empty suffix never serves a
             single mutated run (cf. §4.3). *)
          if opi = 0 then
            emit
              (Diag.warning ~code:"leading-snapshot" ~site:(op_site opi)
                 "snapshot before any interaction: the incremental snapshot \
                  duplicates the root snapshot");
          if opi = n_ops - 1 then
            emit
              (Diag.warning ~code:"trailing-snapshot" ~site:(op_site opi)
                 "snapshot after the last interaction: no suffix is ever fuzzed \
                  from it")
        end
        else begin
          let inputs = nt.Spec.borrows @ nt.Spec.consumes in
          let n_inputs = List.length inputs in
          let n_borrows = List.length nt.Spec.borrows in
          if Array.length op.Program.args <> n_inputs then
            emit
              (Diag.error ~code:"bad-arity" ~site:(op_site opi)
                 (Printf.sprintf "%s expects %d argument(s), got %d" name n_inputs
                    (Array.length op.Program.args)));
          (* Check the slots both sides agree on, so arity errors do not
             suppress independent findings. *)
          List.iteri
            (fun i expected ->
              if i < Array.length op.Program.args then begin
                let idx = op.Program.args.(i) in
                if idx < 0 || idx >= !n_values then
                  emit
                    (Diag.error ~code:"dangling-arg" ~site:(op_site opi)
                       (Printf.sprintf
                          "%s argument %d references value %d, but only values \
                           0..%d exist here"
                          name i idx (!n_values - 1)))
                else begin
                  let v = !values.(idx) in
                  (match v.consumed_at with
                  | Some at ->
                    emit
                      (Diag.error ~code:"affine-use-after-consume" ~site:(op_site opi)
                         (Printf.sprintf
                            "%s argument %d uses value %d (%s) after it was \
                             consumed: produced at op %d, consumed at op %d"
                            name i idx v.ty.Spec.et_name v.producer at))
                  | None -> ());
                  if v.ty.Spec.et_id <> expected.Spec.et_id then
                    emit
                      (Diag.error ~code:"type-mismatch" ~site:(op_site opi)
                         (Printf.sprintf
                            "%s argument %d has type %s (value %d, produced at op \
                             %d), expected %s"
                            name i v.ty.Spec.et_name idx v.producer
                            expected.Spec.et_name));
                  if i >= n_borrows then begin
                    (* A consume slot takes the value out of the available
                       set — even when its type was wrong, mirroring
                       [Program.validate]'s single-pass semantics. *)
                    if v.consumed_at = None then v.consumed_at <- Some opi
                  end
                  else v.uses <- opi :: v.uses
                end
              end)
            inputs;
          (* Data fields. *)
          let n_data = List.length nt.Spec.data in
          if Array.length op.Program.data <> n_data then
            emit
              (Diag.error ~code:"bad-data-arity" ~site:(op_site opi)
                 (Printf.sprintf "%s expects %d data field(s), got %d" name n_data
                    (Array.length op.Program.data)));
          List.iteri
            (fun i (dt : Spec.data_ty) ->
              if i < Array.length op.Program.data then begin
                let len = Bytes.length op.Program.data.(i) in
                if len > dt.Spec.max_len then
                  emit
                    (Diag.error ~code:"data-too-long" ~site:(op_site opi)
                       (Printf.sprintf "%s data field %d (%s) is %d bytes, bound is %d"
                          name i dt.Spec.dt_name len dt.Spec.max_len))
                else if len = dt.Spec.max_len && dt.Spec.max_len >= hotspot_min_bound
                then
                  emit
                    (Diag.warning ~code:"data-at-bound" ~site:(op_site opi)
                       (Printf.sprintf
                          "%s data field %d (%s) saturates its %d-byte bound: \
                           mutations cannot grow it"
                          name i dt.Spec.dt_name dt.Spec.max_len))
              end)
            nt.Spec.data;
          (* No-op interaction: carries data fields, all empty, and neither
             produces nor consumes values — executing it cannot change the
             target-visible state (an empty packet is never delivered). *)
          if
            n_data > 0
            && Array.for_all (fun d -> Bytes.length d = 0) op.Program.data
            && nt.Spec.outputs = [] && nt.Spec.consumes = []
          then
            emit
              (Diag.warning ~code:"noop-interaction" ~site:(op_site opi)
                 (Printf.sprintf "%s with every data field empty has no effect" name));
          List.iter
            (fun ty -> push { ty; producer = opi; uses = []; consumed_at = None })
            nt.Spec.outputs
        end)
    p.Program.ops;
  (* Dead values: produced but never borrowed or consumed. The op that
     produced them still ran for a reason (side effects), but the value
     itself is noise the mutator keeps rebinding to. *)
  for idx = 0 to !n_values - 1 do
    let v = !values.(idx) in
    if v.uses = [] && v.consumed_at = None then
      emit
        (Diag.warning ~code:"dead-value" ~site:(op_site v.producer)
           (Printf.sprintf "value %d (%s) is produced but never borrowed or consumed"
              idx v.ty.Spec.et_name))
  done;
  List.rev !diags

let errors p = List.filter Diag.is_error (check p)
(* [errors p = []] by the contract in the .mli, without formatting a
   diagnostic: this runs on every typed-mutator candidate. *)
let is_clean p = Result.is_ok (Program.validate p)
