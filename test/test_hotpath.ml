(* Hot-loop equivalence suite (journaled coverage, O(1) corpus,
   allocation-light mutation).

   Two layers of proof that the O(touched) hot path changed nothing but
   mechanical cost:
   - property tests: the journaled implementations agree with the
     [_slow] full-scan references (and with an independent model of the
     AFL hashing scheme) under randomized hit sequences; the indexed
     corpus makes bit-identical scheduling picks to a reimplementation
     of the pre-change list-based corpus; the in-place mutators, the
     one-pass [Program.repair] and the array-backed typed splice and
     generate return what the list-based originals returned and leave
     the RNG in the same state; the unboxed RNG replays a boxed-[int64]
     splitmix64;
   - campaign identity: fixed-seed campaigns reproduce, field for field,
     the results recorded from the pre-change implementation (captured
     at commit 25b4f18, before the journal/array rewrite, and, for the
     typed-engine and peer-mode goldens, before the mutation rewrite). *)

open Nyx_core
module Coverage = Nyx_targets.Coverage

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* An independent model of the coverage map: plain int array, same
   AFL hashing (site ^ prev, prev = site >> 1), saturating counts.     *)

module Model = struct
  type t = { map : int array; mutable prev : int }

  let create () = { map = Array.make Coverage.map_size 0; prev = 0 }

  let hit m site =
    let site = site land (Coverage.map_size - 1) in
    let idx = (site lxor m.prev) land (Coverage.map_size - 1) in
    if m.map.(idx) < 255 then m.map.(idx) <- m.map.(idx) + 1;
    m.prev <- site lsr 1

  let signature m =
    let cells = ref [] in
    Array.iteri (fun i c -> if c <> 0 then cells := (i, c) :: !cells) m.map;
    Array.of_list (List.sort compare !cells)

  let edge_count m = Array.length (signature m)
end

let sites_gen = QCheck.(list_of_size Gen.(int_range 0 300) (int_bound 1_000_000))

let prop_journal_matches_model =
  QCheck.Test.make ~name:"journaled map == model under random hits" ~count:100
    sites_gen (fun sites ->
      let cov = Coverage.create () in
      let m = Model.create () in
      List.iter
        (fun s ->
          Coverage.hit cov s;
          Model.hit m s)
        sites;
      Coverage.signature cov = Model.signature m
      && Coverage.edge_count cov = Model.edge_count m
      && Coverage.edge_count cov = Coverage.edge_count_slow cov)

let prop_reset_equiv_slow =
  QCheck.Test.make ~name:"journaled reset == full-fill reset" ~count:100
    (QCheck.pair sites_gen sites_gen) (fun (a, b) ->
      let c1 = Coverage.create () and c2 = Coverage.create () in
      List.iter (Coverage.hit c1) a;
      List.iter (Coverage.hit c2) a;
      Coverage.reset c1;
      Coverage.reset_slow c2;
      (* Both must land in the pristine state: replaying a second
         sequence gives identical maps. *)
      List.iter (Coverage.hit c1) b;
      List.iter (Coverage.hit c2) b;
      Coverage.signature c1 = Coverage.signature c2
      && Coverage.edge_count c1 = Coverage.edge_count_slow c1)

let prop_merge_equiv_slow =
  QCheck.Test.make ~name:"journaled merge == iter_hits merge" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 10) sites_gen)
    (fun execs ->
      let fast = Coverage.Cumulative.create () in
      let slow = Coverage.Cumulative.create () in
      let cov = Coverage.create () in
      List.for_all
        (fun sites ->
          Coverage.reset cov;
          List.iter (Coverage.hit cov) sites;
          let nf = Coverage.Cumulative.merge fast cov in
          let ns = Coverage.Cumulative.merge_slow slow cov in
          nf = ns
          && Coverage.Cumulative.edge_count fast
             = Coverage.Cumulative.edge_count_slow fast
          && Coverage.Cumulative.edge_count fast
             = Coverage.Cumulative.edge_count_slow slow)
        execs)

let prop_save_restore =
  QCheck.Test.make ~name:"save/restore round-trips through the journal" ~count:100
    (QCheck.triple sites_gen sites_gen sites_gen) (fun (a, b, c) ->
      let cov = Coverage.create () in
      let m = Model.create () in
      List.iter
        (fun s ->
          Coverage.hit cov s;
          Model.hit m s)
        a;
      let cp = Coverage.save cov in
      let sig_a = Coverage.signature cov in
      Coverage.matches cov cp
      && begin
           List.iter (Coverage.hit cov) b;
           Coverage.restore cov cp;
           Coverage.signature cov = sig_a
           && Coverage.matches cov cp
           && begin
                (* The previous-location register must be restored too:
                   continuing from the checkpoint behaves exactly like a
                   run that never diverged. *)
                List.iter
                  (fun s ->
                    Coverage.hit cov s;
                    Model.hit m s)
                  c;
                Coverage.signature cov = Model.signature m
              end
         end)

(* ------------------------------------------------------------------ *)
(* Corpus: the pre-change list-based implementation, reproduced
   verbatim, must make bit-identical picks to the indexed array.       *)

module Ref_corpus = struct
  type entry = { id : int; state_code : int }
  type t = { mutable rev_entries : entry list; mutable count : int }

  let create () = { rev_entries = []; count = 0 }

  let add t ~state_code =
    let entry = { id = t.count; state_code } in
    t.rev_entries <- entry :: t.rev_entries;
    t.count <- t.count + 1;
    entry

  let nth_newest t i = List.nth t.rev_entries i

  let schedule t rng =
    if Nyx_sim.Rng.bool rng then nth_newest t (Nyx_sim.Rng.int rng t.count)
    else nth_newest t (Nyx_sim.Rng.int rng (max 1 (t.count / 4)))

  let schedule_state_aware t rng =
    let freq = Hashtbl.create 16 in
    List.iter
      (fun e ->
        Hashtbl.replace freq e.state_code
          (1 + Option.value ~default:0 (Hashtbl.find_opt freq e.state_code)))
      t.rev_entries;
    let weighted =
      List.map
        (fun e ->
          ( e,
            1.0
            /. float_of_int (Option.value ~default:1 (Hashtbl.find_opt freq e.state_code))
          ))
        t.rev_entries
    in
    Nyx_sim.Rng.weighted rng weighted
end

type corpus_op = Add of int | Schedule | ScheduleStateAware

let corpus_script_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 1 60)
      (oneof
         [
           map (fun s -> Add (s mod 5)) (int_bound 1000);
           always Schedule;
           always ScheduleStateAware;
         ]))

let mk_program () =
  Nyx_spec.Net_spec.seed_of_packets (Campaign.net_spec ()) [ Bytes.of_string "x" ]

let prop_corpus_picks_identical =
  QCheck.Test.make ~name:"indexed corpus picks == list-based reference" ~count:100
    (QCheck.pair QCheck.small_int corpus_script_gen) (fun (seed, script) ->
      let program = mk_program () in
      let c = Corpus.create () in
      let r = Ref_corpus.create () in
      let rng_c = Nyx_sim.Rng.create seed in
      let rng_r = Nyx_sim.Rng.create seed in
      (* Seed both so schedules never hit the empty corpus. *)
      ignore (Corpus.add c ~program ~exec_ns:0 ~discovered_ns:0 ~state_code:0);
      ignore (Ref_corpus.add r ~state_code:0);
      List.for_all
        (fun op ->
          match op with
          | Add state_code ->
            let e = Corpus.add c ~program ~exec_ns:0 ~discovered_ns:0 ~state_code in
            let e' = Ref_corpus.add r ~state_code in
            e.Corpus.id = e'.Ref_corpus.id
          | Schedule ->
            (Corpus.schedule c rng_c).Corpus.id
            = (Ref_corpus.schedule r rng_r).Ref_corpus.id
          | ScheduleStateAware ->
            (Corpus.schedule_state_aware c rng_c).Corpus.id
            = (Ref_corpus.schedule_state_aware r rng_r).Ref_corpus.id)
        script)

let test_corpus_programs_cached () =
  let c = Corpus.create () in
  let p = mk_program () in
  for i = 0 to 4 do
    ignore (Corpus.add c ~program:p ~exec_ns:0 ~discovered_ns:i ~state_code:i)
  done;
  let a1 = Corpus.programs c in
  check_int "snapshot length" 5 (Array.length a1);
  Alcotest.(check bool) "cached between growths" true (Corpus.programs c == a1);
  (* Must equal the (newest-first) entries view. *)
  Alcotest.(check bool) "matches entries order" true
    (Array.to_list a1 = List.map (fun e -> e.Corpus.program) (Corpus.entries c));
  ignore (Corpus.add c ~program:p ~exec_ns:0 ~discovered_ns:9 ~state_code:9);
  let a2 = Corpus.programs c in
  Alcotest.(check bool) "rebuilt after growth" true (a2 != a1);
  check_int "grown snapshot" 6 (Array.length a2)

(* ------------------------------------------------------------------ *)
(* Mutation: the pre-change list-based [Program.repair],
   [Mutator.mutate] and [Havoc.mutate], reproduced verbatim (commit
   5b69560), must produce structurally equal results and leave the RNG
   in the same state as the in-place array versions.                  *)

module Rng = Nyx_sim.Rng
module Spec = Nyx_spec.Spec
module Program = Nyx_spec.Program

module Ref_mutation = struct
  open Nyx_spec

  let op_inputs (nt : Spec.node_ty) = nt.Spec.borrows @ nt.Spec.consumes

  let repair ?rng (t : Program.t) =
    let open Spec in
    let available = ref [] (* (value index, edge_ty), newest first, unconsumed *) in
    let n_values = ref 0 in
    let out = ref [] in
    let pick ty =
      let candidates = List.filter (fun (_, et) -> et.et_id = ty.et_id) !available in
      match candidates with
      | [] -> None
      | first :: _ -> (
        match rng with
        | None -> Some (fst first)
        | Some rng -> Some (fst (Rng.choose_list rng candidates)))
    in
    Array.iter
      (fun (op : Program.op) ->
        match Spec.node t.Program.spec op.Program.node with
        | exception Invalid_argument _ -> ()
        | nt ->
          let inputs = op_inputs nt in
          let n_borrows = List.length nt.borrows in
          let chosen = ref [] in
          let consumed_here = ref [] in
          let ok =
            List.for_all
              (fun (i, expected) ->
                let is_consume = i >= n_borrows in
                let usable v =
                  List.exists (fun (v', et) -> v' = v && et.et_id = expected.et_id) !available
                  && not (List.mem v !consumed_here)
                in
                let current =
                  if i < Array.length op.Program.args then op.Program.args.(i) else -1
                in
                let binding =
                  if usable current then Some current
                  else
                    match pick expected with
                    | Some v when usable v -> Some v
                    | _ ->
                      List.find_opt (fun (v, _) -> usable v) !available |> Option.map fst
                in
                match binding with
                | None -> false
                | Some v ->
                  chosen := !chosen @ [ v ];
                  if is_consume then consumed_here := v :: !consumed_here;
                  true)
              (List.mapi (fun i e -> (i, e)) inputs)
          in
          if ok then begin
            let args = Array.of_list !chosen in
            let n_borrows = List.length nt.borrows in
            List.iteri
              (fun i _ ->
                let v = args.(n_borrows + i) in
                available := List.filter (fun (v', _) -> v' <> v) !available)
              nt.consumes;
            let data =
              Array.of_list
                (List.mapi
                   (fun i dt ->
                     let d =
                       if i < Array.length op.Program.data then op.Program.data.(i)
                       else Bytes.empty
                     in
                     if Bytes.length d > dt.max_len then Bytes.sub d 0 dt.max_len else d)
                   nt.data)
            in
            List.iter
              (fun ty ->
                available := (!n_values, ty) :: !available;
                incr n_values)
              nt.outputs;
            out := { Program.node = op.Program.node; args; data } :: !out
          end)
      t.Program.ops;
    let repaired = { t with Program.ops = Array.of_list (List.rev !out) } in
    match Program.validate repaired with
    | Ok () -> repaired
    | Error _ ->
      let seen_snapshot = ref false in
      let ops =
        Array.of_seq
          (Seq.filter
             (fun (op : Program.op) ->
               if op.Program.node = Spec.snapshot_node_id then
                 if !seen_snapshot then false
                 else begin
                   seen_snapshot := true;
                   true
                 end
               else true)
             (Array.to_seq repaired.Program.ops))
      in
      { repaired with Program.ops }

  (* Havoc.mutate *)

  let clamp max_len b = if Bytes.length b > max_len then Bytes.sub b 0 max_len else b

  let delete_range rng b =
    let len = Bytes.length b in
    if len < 2 then b
    else begin
      let start = Rng.int rng len in
      let dlen = 1 + Rng.int rng (min 16 (len - start)) in
      Bytes.cat (Bytes.sub b 0 start) (Bytes.sub b (start + dlen) (len - start - dlen))
    end

  let duplicate_range rng b =
    let len = Bytes.length b in
    if len = 0 then b
    else begin
      let start = Rng.int rng len in
      let dlen = 1 + Rng.int rng (min 16 (len - start)) in
      let chunk = Bytes.sub b start dlen in
      let at = Rng.int rng (len + 1) in
      Bytes.concat Bytes.empty [ Bytes.sub b 0 at; chunk; Bytes.sub b at (len - at) ]
    end

  let insert_random rng b =
    let len = Bytes.length b in
    let at = Rng.int rng (len + 1) in
    let chunk = Rng.bytes rng (1 + Rng.int rng 8) in
    Bytes.concat Bytes.empty [ Bytes.sub b 0 at; chunk; Bytes.sub b at (len - at) ]

  let splice_dict rng dict b =
    match dict with
    | [] -> b
    | _ ->
      let token = Rng.choose_list rng dict in
      let len = Bytes.length b in
      let at = Rng.int rng (len + 1) in
      if Rng.bool rng && len > at + Bytes.length token then begin
        let out = Bytes.copy b in
        Bytes.blit token 0 out at (Bytes.length token);
        out
      end
      else Bytes.concat Bytes.empty [ Bytes.sub b 0 at; token; Bytes.sub b at (len - at) ]

  let in_place_byte_op rng b f =
    let len = Bytes.length b in
    if len = 0 then b
    else begin
      let out = Bytes.copy b in
      let i = Rng.int rng len in
      Bytes.set out i (Char.chr (f (Char.code (Bytes.get out i)) land 0xff));
      out
    end

  let havoc rng ?(dict = []) ?(max_len = 4096) ?(rounds = 8) data =
    let n = 1 + Rng.int rng rounds in
    let b = ref (Bytes.copy data) in
    for _ = 1 to n do
      let choice = Rng.int rng 8 in
      b :=
        (match choice with
        | 0 -> in_place_byte_op rng !b (fun c -> c lxor (1 lsl Rng.int rng 8))
        | 1 -> in_place_byte_op rng !b (fun _ -> Rng.choose rng Havoc.interesting_bytes)
        | 2 -> in_place_byte_op rng !b (fun _ -> Char.code (Rng.byte rng))
        | 3 -> in_place_byte_op rng !b (fun c -> c + Rng.int_in rng (-16) 16)
        | 4 -> delete_range rng !b
        | 5 -> duplicate_range rng !b
        | 6 -> insert_random rng !b
        | 7 -> splice_dict rng dict !b
        | _ -> assert false)
    done;
    clamp max_len !b

  (* Mutator.mutate *)

  let random_node rng spec =
    let all = Spec.nodes spec in
    let candidates =
      Array.of_seq
        (Seq.filter (fun (nt : Spec.node_ty) -> nt.Spec.nt_id <> Spec.snapshot_node_id)
           (Array.to_seq all))
    in
    if Array.length candidates = 0 then None else Some (Rng.choose rng candidates)

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
      let nargs = List.length nt.Spec.borrows + List.length nt.Spec.consumes in
      Some { Program.node = nt.Spec.nt_id; args = Array.make nargs 0; data }

  let havoc_op rng dict (op : Program.op) spec =
    let nt = Spec.node spec op.Program.node in
    if Array.length op.Program.data = 0 then op
    else begin
      let i = Rng.int rng (Array.length op.Program.data) in
      let dt = List.nth nt.Spec.data i in
      let data = Array.copy op.Program.data in
      data.(i) <- havoc rng ~dict ~max_len:dt.Spec.max_len data.(i);
      { op with Program.data }
    end

  let mutate rng ?(frozen = 0) ?(max_ops = 24) ?(dict = []) ?(corpus = [||]) (p : Program.t) =
    let frozen = min frozen (Array.length p.Program.ops) in
    let prefix = Array.sub p.Program.ops 0 frozen in
    let suffix =
      ref (Array.to_list (Array.sub p.Program.ops frozen (Array.length p.Program.ops - frozen)))
    in
    suffix := List.filter (fun op -> op.Program.node <> Spec.snapshot_node_id) !suffix;
    let n_rounds = 1 + Rng.int rng 4 in
    for _ = 1 to n_rounds do
      let ops = Array.of_list !suffix in
      let n = Array.length ops in
      let choice =
        Rng.weighted rng
          [ (`Havoc, 5.0); (`Dup, 1.0); (`Del, 1.0); (`Swap, 1.0); (`Splice, 1.5); (`Append, 1.0) ]
      in
      suffix :=
        (match choice with
        | `Havoc when n > 0 ->
          let i = Rng.int rng n in
          Array.to_list
            (Array.mapi (fun j op -> if j = i then havoc_op rng dict op p.Program.spec else op) ops)
        | `Dup when n > 0 ->
          let i = Rng.int rng n in
          let rec insert j = function
            | [] -> []
            | op :: rest -> if j = i then op :: op :: rest else op :: insert (j + 1) rest
          in
          insert 0 !suffix
        | `Del when n > 1 ->
          let i = Rng.int rng n in
          List.filteri (fun j _ -> j <> i) !suffix
        | `Swap when n > 1 ->
          let i = Rng.int rng (n - 1) in
          let a = ops.(i) in
          ops.(i) <- ops.(i + 1);
          ops.(i + 1) <- a;
          Array.to_list ops
        | `Splice when Array.length corpus > 0 ->
          let donor = Rng.choose rng corpus in
          let donor_ops =
            Array.to_list donor.Program.ops
            |> List.filter (fun op -> op.Program.node <> Spec.snapshot_node_id)
          in
          let keep = if n = 0 then 0 else Rng.int rng (n + 1) in
          let dlen = List.length donor_ops in
          let from = if dlen = 0 then 0 else Rng.int rng dlen in
          List.filteri (fun j _ -> j < keep) !suffix @ List.filteri (fun j _ -> j >= from) donor_ops
        | `Append -> (
          match fresh_op rng p.Program.spec with
          | Some op -> !suffix @ [ op ]
          | None -> !suffix)
        | _ -> !suffix)
    done;
    let room = max 0 (max_ops - Array.length prefix) in
    if List.length !suffix > room then suffix := List.filteri (fun i _ -> i < room) !suffix;
    let candidate = { p with Program.ops = Array.append prefix (Array.of_list !suffix) } in
    repair ~rng candidate
end

(* Typed mutation: the pre-change [Typed_mutators.splice] and [generate],
   finishing with the diagnostic-building verifier check, and
   [Dataflow.state_path] and [Program.strip_snapshots], reproduced
   verbatim (commit d9e0913). Their candidates and final RNG states must
   equal the array-backed versions'. *)

module Ref_typed = struct
  open Nyx_spec
  open Nyx_analysis

  let strip_snapshots (t : Program.t) =
    { t with Program.ops = Array.of_seq (Seq.filter (fun (op : Program.op) -> op.Program.node <> Spec.snapshot_node_id)
                                 (Array.to_seq t.Program.ops)) }

  let node_of spec id =
    match Spec.node spec id with nt -> Some nt | exception Invalid_argument _ -> None

  let state_path (p : Program.t) =
    let n = Array.length p.Program.ops in
    let path = Array.make (n + 1) 0 in
    let value_ty = ref [||] in
    let alive = ref [||] in
    let mask () =
      let m = ref 0 in
      Array.iteri (fun i ty -> if !alive.(i) then m := !m lor (1 lsl ty)) !value_ty;
      !m
    in
    Array.iteri
      (fun i (op : Program.op) ->
        (match node_of p.Program.spec op.Program.node with
        | Some nt when nt.Spec.nt_id <> Spec.snapshot_node_id ->
          let n_borrows = List.length nt.Spec.borrows in
          Array.iteri
            (fun slot v ->
              if slot >= n_borrows && v >= 0 && v < Array.length !alive then
                !alive.(v) <- false)
            op.Program.args;
          let outs = Array.of_list (List.map (fun e -> e.Spec.et_id) nt.Spec.outputs) in
          value_ty := Array.append !value_ty outs;
          alive := Array.append !alive (Array.make (Array.length outs) true)
        | _ -> ());
        path.(i + 1) <- mask ())
      p.Program.ops;
    path

  let snap = Spec.snapshot_node_id

  let usable_nodes spec =
    let nodes = Spec.nodes spec in
    let constructible, _ = Spec_lint.constructible_nodes nodes in
    List.filter
      (fun (nt : Spec.node_ty) -> nt.Spec.nt_id <> snap && constructible.(nt.Spec.nt_id))
      (Array.to_list nodes)

  let cap_ops max_ops ops =
    if Array.length ops > max_ops then Array.sub ops 0 max_ops else ops

  let is_clean p = Verifier.errors p = []

  let finish rng (p : Program.t) ops =
    let cand = Program.repair ~rng { p with Program.ops } in
    if Array.length cand.Program.ops = 0 then None
    else if is_clean cand then Some cand
    else None

  let splice rng (ctx : Mutation_engine.ctx) (p : Program.t) =
    if Array.length ctx.mx_corpus = 0 then None
    else begin
      let frozen = min ctx.mx_frozen (Array.length p.Program.ops) in
      let donor = Rng.choose rng ctx.mx_corpus in
      let donor = strip_snapshots donor in
      let dlen = Array.length donor.Program.ops in
      if dlen = 0 then None
      else begin
        let sa = state_path p in
        let sb = state_path donor in
        let pairs = ref [] in
        let n_pairs = ref 0 in
        for i = Array.length p.Program.ops downto frozen do
          for j = dlen - 1 downto 0 do
            if sa.(i) = sb.(j) then begin
              pairs := (i, j) :: !pairs;
              incr n_pairs
            end
          done
        done;
        if !n_pairs = 0 then None
        else begin
          let cuts = Array.of_list !pairs in
          let i, j = cuts.(Rng.int rng !n_pairs) in
          let ops =
            Array.append
              (Array.sub p.Program.ops 0 i)
              (Array.sub donor.Program.ops j (dlen - j))
          in
          finish rng p (cap_ops ctx.mx_max_ops ops)
        end
      end
    end

  type env = { mutable avail : (int * Spec.edge_ty) list; mutable n_values : int }

  let env_mask env =
    List.fold_left (fun m (_, (et : Spec.edge_ty)) -> m lor (1 lsl et.Spec.et_id)) 0
      env.avail

  let env_of_prefix spec ops =
    let env = { avail = []; n_values = 0 } in
    Array.iter
      (fun (op : Program.op) ->
        let nt = Spec.node spec op.Program.node in
        let n_borrows = List.length nt.Spec.borrows in
        List.iteri
          (fun i _ ->
            let v = op.Program.args.(n_borrows + i) in
            env.avail <- List.filter (fun (v', _) -> v' <> v) env.avail)
          nt.Spec.consumes;
        List.iter
          (fun ty ->
            env.avail <- (env.n_values, ty) :: env.avail;
            env.n_values <- env.n_values + 1)
          nt.Spec.outputs)
      ops;
    env

  let enabled env (nt : Spec.node_ty) =
    let have et =
      List.length
        (List.filter (fun (_, (e : Spec.edge_ty)) -> e.Spec.et_id = et) env.avail)
    in
    List.for_all (fun (et : Spec.edge_ty) -> have et.Spec.et_id >= 1) nt.Spec.borrows
    && List.for_all
         (fun (et : Spec.edge_ty) ->
           let needed =
             List.length
               (List.filter
                  (fun (e : Spec.edge_ty) -> e.Spec.et_id = et.Spec.et_id)
                  nt.Spec.consumes)
           in
           have et.Spec.et_id >= needed)
         nt.Spec.consumes

  let emit rng dict env (nt : Spec.node_ty) =
    let pick_of ty exclude =
      let cands =
        List.filter
          (fun (v, (e : Spec.edge_ty)) ->
            e.Spec.et_id = ty.Spec.et_id && not (List.mem v exclude))
          env.avail
      in
      fst (Rng.choose_list rng cands)
    in
    let borrow_args =
      List.map (fun ty -> pick_of ty []) nt.Spec.borrows
    in
    let consumed = ref [] in
    let consume_args =
      List.map
        (fun ty ->
          let v = pick_of ty !consumed in
          consumed := v :: !consumed;
          v)
        nt.Spec.consumes
    in
    env.avail <- List.filter (fun (v, _) -> not (List.mem v !consumed)) env.avail;
    let data =
      Array.of_list
        (List.map
           (fun (dt : Spec.data_ty) ->
             if dict <> [] && Rng.chance rng 0.5 then begin
               let tok = Rng.choose_list rng dict in
               if Bytes.length tok > dt.Spec.max_len then
                 Bytes.sub tok 0 dt.Spec.max_len
               else tok
             end
             else Rng.bytes rng (Rng.int rng (min 64 (dt.Spec.max_len + 1))))
           nt.Spec.data)
    in
    List.iter
      (fun ty ->
        env.avail <- (env.n_values, ty) :: env.avail;
        env.n_values <- env.n_values + 1)
      nt.Spec.outputs;
    { Program.node = nt.Spec.nt_id; args = Array.of_list (borrow_args @ consume_args); data }

  let generate ~usable ~reachable rng (ctx : Mutation_engine.ctx) (p : Program.t) =
    let frozen = min ctx.mx_frozen (Array.length p.Program.ops) in
    let room = ctx.mx_max_ops - frozen in
    if room <= 0 then None
    else begin
      let prefix = Array.sub p.Program.ops 0 frozen in
      let env = env_of_prefix p.Program.spec prefix in
      let target =
        if Array.length reachable > 0 && Rng.bool rng then
          Some (Rng.choose rng reachable)
        else None
      in
      let len = 1 + Rng.int rng room in
      let out = ref [] in
      (try
         for _ = 1 to len do
           let en = List.filter (enabled env) usable in
           if en = [] then raise Exit;
           let nt =
             match target with
             | Some tgt ->
               let missing = tgt land lnot (env_mask env) in
               let productive =
                 List.filter
                   (fun (nt : Spec.node_ty) ->
                     List.exists
                       (fun (et : Spec.edge_ty) ->
                         missing land (1 lsl et.Spec.et_id) <> 0)
                       nt.Spec.outputs)
                   en
               in
               if productive <> [] && Rng.chance rng 0.75 then
                 Rng.choose_list rng productive
               else Rng.choose_list rng en
             | None -> Rng.choose_list rng en
           in
           out := emit rng ctx.mx_dict env nt :: !out
         done
       with Exit -> ());
      match !out with
      | [] -> None
      | ops ->
        finish rng p (Array.append prefix (Array.of_list (List.rev ops)))
    end

  let generate_fn spec =
    let usable = usable_nodes spec in
    let graph = State_graph.build spec in
    let reachable =
      Array.of_list (List.filter (fun m -> m <> 0) (State_graph.reachable graph))
    in
    generate ~usable ~reachable
end

(* The splitmix64 generator as it was before its state moved into
   [Bytes]: a boxed [int64] field. *)
module Ref_rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next_int64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t = { state = next_int64 t }
  let int t bound = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) mod bound
  let bool t = Int64.logand (next_int64 t) 1L = 1L

  let float t x =
    x *. Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) /. 9007199254740992.0

  let weighted t pairs =
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
    let target = float t total in
    let rec pick acc = function
      | [] -> invalid_arg "weighted"
      | [ (x, _) ] -> x
      | (x, w) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
    in
    pick 0.0 pairs
end

let rng_seeds = [ 0; 1; 7; 1001; -5; max_int ]

(* 10,000 outputs of each kind from each seed, then the final state. *)
let test_rng_matches_boxed_reference () =
  List.iter
    (fun seed ->
      let pair () = (Rng.create seed, Ref_rng.create seed) in
      let same name ok = if not ok then Alcotest.failf "seed %d: %s differs" seed name in
      let r, m = pair () in
      for i = 1 to 10_000 do
        let bound = if i mod 3 = 0 then max_int else 1 + (i * 7919 mod 100_000) in
        same "int" (Rng.int r bound = Ref_rng.int m bound)
      done;
      same "state after int" (Rng.state r = m.Ref_rng.state);
      let r, m = pair () in
      for _ = 1 to 10_000 do
        same "bool" (Rng.bool r = Ref_rng.bool m)
      done;
      same "state after bool" (Rng.state r = m.Ref_rng.state);
      let r, m = pair () in
      for i = 1 to 10_000 do
        let x = float_of_int i /. 3.0 in
        same "float" (Int64.bits_of_float (Rng.float r x) = Int64.bits_of_float (Ref_rng.float m x))
      done;
      same "state after float" (Rng.state r = m.Ref_rng.state);
      let r, m = pair () in
      for _ = 1 to 10_000 do
        let r' = Rng.split r and m' = Ref_rng.split m in
        same "split" (Rng.state r' = m'.Ref_rng.state && Rng.int r' 1000 = Ref_rng.int m' 1000)
      done;
      same "state after split" (Rng.state r = m.Ref_rng.state);
      let r, m = pair () in
      for i = 1 to 10_000 do
        let pairs = List.init (1 + (i mod 7)) (fun k -> (k, float_of_int (1 + ((i + k) mod 5)) /. 2.0)) in
        same "weighted" (Rng.weighted r pairs = Ref_rng.weighted m pairs)
      done;
      same "state after weighted" (Rng.state r = m.Ref_rng.state);
      Rng.set_state r 42L;
      same "set_state" (Rng.state r = 42L))
    rng_seeds

(* Random programs: op soup over two specs. Nodes run past both ends of
   the spec (unknown opcodes, including negative ones), node 0 is the
   snapshot opcode, args are negative, in range or dangling, and data
   fields are missing, extra or over their bound. *)

let net = Nyx_spec.Net_spec.create ~max_payload:24 ()

(* More shapes than the raw-packet spec: two edge types, nodes that
   borrow two values, consume two of one type, or borrow and consume the
   same type, one with two outputs, and tight data bounds. *)
let rich_spec =
  let b = Spec.start "rich" in
  let conn = Spec.edge_type b "conn" in
  let file = Spec.edge_type b "file" in
  let small = Spec.data_type b ~max_len:4 "small" in
  let big = Spec.data_type b ~max_len:32 "big" in
  ignore (Spec.node_type b ~outputs:[ conn ] ~data:[ small ] "open");
  ignore (Spec.node_type b ~borrows:[ conn ] ~outputs:[ file; file ] ~data:[ big; small ] "list");
  ignore (Spec.node_type b ~borrows:[ conn; file ] ~consumes:[ file ] ~data:[ big ] "retr");
  ignore (Spec.node_type b ~consumes:[ conn; file ] "close_both");
  ignore (Spec.node_type b ~borrows:[ conn; conn ] ~data:[ big ] "pair");
  ignore (Spec.node_type b ~consumes:[ file; file ] ~outputs:[ file ] "join");
  ignore (Spec.node_type b ~borrows:[ file ] ~consumes:[ file ] ~data:[ small ] "move");
  Spec.finalize b

let gen_program spec =
  let open QCheck.Gen in
  let n_nodes = Array.length (Spec.nodes spec) in
  let gen_bytes = map Bytes.of_string (string_size ~gen:printable (int_range 0 40)) in
  let gen_op =
    map3
      (fun node args data -> { Program.node; args = Array.of_list args; data = Array.of_list data })
      (frequency [ (8, int_range 1 (n_nodes - 1)); (2, return 0); (1, int_range (-2) (n_nodes + 2)) ])
      (list_size (int_range 0 4) (frequency [ (6, int_range 0 12); (1, int_range (-3) 40) ]))
      (list_size (int_range 0 3) gen_bytes)
  in
  map (fun ops -> { Program.spec; ops = Array.of_list ops }) (list_size (int_range 0 26) gen_op)

type case = {
  c_seed : int;
  c_prog : Program.t;
  c_frozen : int;
  c_max_ops : int;
  c_dict : bytes list;
  c_corpus : Program.t array;
}

let gen_case =
  let open QCheck.Gen in
  oneofl [ net.Nyx_spec.Net_spec.spec; rich_spec ] >>= fun spec ->
  map3
    (fun (c_seed, c_prog) (c_frozen, c_max_ops) (c_dict, corpus) ->
      { c_seed; c_prog; c_frozen; c_max_ops; c_dict; c_corpus = Array.of_list corpus })
    (pair int (gen_program spec))
    (pair (int_range 0 30) (frequency [ (3, return 24); (1, int_range 0 40) ]))
    (pair
       (list_size (int_range 0 3) (map Bytes.of_string (string_size ~gen:printable (int_range 0 6))))
       (list_size (int_range 0 3) (gen_program spec)))

let print_case c =
  Format.asprintf "seed %d frozen %d max_ops %d dict %d corpus %d@.%a" c.c_seed c.c_frozen
    c.c_max_ops (List.length c.c_dict) (Array.length c.c_corpus)
    (fun ppf (p : Program.t) ->
      Array.iteri
        (fun i (op : Program.op) ->
          Format.fprintf ppf "%d: node %d args [%s] data %d@." i op.Program.node
            (String.concat ";" (Array.to_list (Array.map string_of_int op.Program.args)))
            (Array.length op.Program.data))
        p.Program.ops)
    c.c_prog

let arb_case = QCheck.make ~print:print_case gen_case

(* Run [f] on a fresh generator; the result (or the exception it raised)
   together with the generator's final state. *)
let outcome seed f =
  let rng = Rng.create seed in
  let r = try Ok (f rng) with e -> Error (Printexc.to_string e) in
  (r, Rng.state rng)

let ops_outcome (r, s) = (Result.map (fun (p : Program.t) -> p.Program.ops) r, s)

let prop_repair_matches_reference =
  QCheck.Test.make ~name:"one-pass repair == list-based reference" ~count:400 arb_case
    (fun c ->
      let p = c.c_prog in
      (Program.repair p).Program.ops = (Ref_mutation.repair p).Program.ops
      && ops_outcome (outcome c.c_seed (fun rng -> Program.repair ~rng p))
         = ops_outcome (outcome c.c_seed (fun rng -> Ref_mutation.repair ~rng p))
      && Program.validate (Program.repair p) = Ok ())

(* Repair's output is a fixed point it returns physically, making no
   draw: every op's bindings are usable and its data fit. *)
let prop_repair_keeps_valid_ops =
  QCheck.Test.make ~name:"repair keeps a valid program physically, drawless" ~count:400
    arb_case (fun c ->
      let p = Program.repair c.c_prog in
      let rng = Rng.create c.c_seed in
      let s = Rng.state rng in
      Program.repair p == p && Program.repair ~rng p == p && Rng.state rng = s)

let prop_mutator_matches_reference =
  QCheck.Test.make ~name:"array mutator == list-based reference" ~count:400 arb_case
    (fun c ->
      let frozen = c.c_frozen and max_ops = c.c_max_ops and dict = c.c_dict in
      let corpus = c.c_corpus and before = Program.serialize c.c_prog in
      ops_outcome
        (outcome c.c_seed (fun rng ->
             Nyx_spec.Mutator.mutate rng ~frozen ~max_ops ~dict ~corpus c.c_prog))
      = ops_outcome
          (outcome c.c_seed (fun rng ->
               Ref_mutation.mutate rng ~frozen ~max_ops ~dict ~corpus c.c_prog))
      && Program.serialize c.c_prog = before)

let prop_havoc_matches_reference =
  QCheck.Test.make ~name:"in-place havoc == list-based reference" ~count:1000
    QCheck.(
      quad int (string_of_size Gen.(int_range 0 48))
        (list_of_size Gen.(int_range 0 3) (string_of_size Gen.(int_range 0 6)))
        (pair (int_range 0 64) (int_range 1 12)))
    (fun (seed, data, dict, (max_len, rounds)) ->
      let input = Bytes.of_string data and dict = List.map Bytes.of_string dict in
      let ((fast, _) as a) =
        outcome seed (fun rng -> Nyx_spec.Havoc.mutate rng ~dict ~max_len ~rounds input)
      in
      a = outcome seed (fun rng -> Ref_mutation.havoc rng ~dict ~max_len ~rounds input)
      && Bytes.to_string input = data
      && match fast with Ok b -> b != input | Error _ -> true)

(* Typed mutation, over op soup and over the registry's seed corpora:
   the array-backed splice and generate make the reference's candidates
   with the reference's draws, and the state path and the snapshot strip
   are unchanged. *)

module ME = Nyx_spec.Mutation_engine
module TM = Nyx_analysis.Typed_mutators
module Dataflow = Nyx_analysis.Dataflow
module Verifier = Nyx_analysis.Verifier

(* domain-safe: test-only lazy fixture, forced on a single domain *)
let registry_corpora =
  lazy
    (let ns = Campaign.net_spec () in
     Array.of_list
       (List.map
          (fun e -> Array.of_list (Nyx_targets.Registry.seed_programs e ns))
          (Nyx_targets.Registry.all ())))

(* One target's seeds and havoc mutants of them, each with or without a
   snapshot op: the program frozen at its snapshot or anywhere, an op
   cap that may cut it, and a corpus of one to six such entries. *)
let gen_registry_case st =
  let open QCheck.Gen in
  let corpora = Lazy.force registry_corpora in
  let seeds = corpora.(int_bound (Array.length corpora - 1) st) in
  let entry () =
    let p = seeds.(int_bound (Array.length seeds - 1) st) in
    let p =
      if bool st then Nyx_spec.Mutator.mutate (Rng.create (int st)) ~corpus:seeds p else p
    in
    if bool st then Program.with_snapshot_at p (int_bound (Program.packet_count p) st) else p
  in
  let c_prog = entry () in
  let c_frozen =
    match Nyx_spec.Interp.snapshot_op_index c_prog with
    | Some i when bool st -> i + 1
    | _ -> int_bound 6 st
  in
  let c_max_ops =
    if bool st then 25 else int_range 1 (Array.length c_prog.Program.ops + 4) st
  in
  let c_dict =
    list_size (int_range 0 3) (map Bytes.of_string (string_size ~gen:printable (int_range 0 8))) st
  in
  let c_corpus = Array.init (1 + int_bound 5 st) (fun _ -> entry ()) in
  let c_seed = int st in
  { c_seed; c_prog; c_frozen; c_max_ops; c_dict; c_corpus }

let arb_typed_case =
  QCheck.make ~print:print_case QCheck.Gen.(frequency [ (1, gen_case); (1, gen_registry_case) ])

(* The candidate, serialized, or the exception; and the final RNG state. *)
let typed_outcome seed f =
  let r, s = outcome seed f in
  (Result.map (Option.map Program.serialize) r, s)

let prop_typed_matches_reference =
  QCheck.Test.make ~name:"typed splice/generate == list-based reference" ~count:600
    arb_typed_case (fun c ->
      let ctx =
        {
          ME.mx_frozen = c.c_frozen;
          mx_max_ops = c.c_max_ops;
          mx_dict = c.c_dict;
          mx_corpus = c.c_corpus;
        }
      in
      let same f g p =
        typed_outcome c.c_seed (fun rng -> f rng ctx p)
        = typed_outcome c.c_seed (fun rng -> g rng ctx p)
      in
      (* The engine only mutates valid programs; splice takes any. *)
      let valid = Program.repair c.c_prog in
      let spec = c.c_prog.Program.spec in
      same TM.splice_mutator.ME.m_fn Ref_typed.splice c.c_prog
      && same TM.splice_mutator.ME.m_fn Ref_typed.splice valid
      && same (TM.generate_mutator spec).ME.m_fn (Ref_typed.generate_fn spec) valid
      && List.for_all
           (fun q ->
             let stripped = Program.strip_snapshots q in
             Dataflow.state_path q = Ref_typed.state_path q
             && Program.serialize stripped = Program.serialize (Ref_typed.strip_snapshots q)
             && (stripped == q) = (Program.packet_count q = Array.length q.Program.ops))
           (c.c_prog :: valid :: Array.to_list c.c_corpus))

(* [join] consumes two files: binding one file to both of its slots uses
   it after it is consumed. *)
let test_validate_double_consume () =
  let op name args data =
    {
      Program.node = (Spec.node_by_name rich_spec name).Spec.nt_id;
      args;
      data = Array.map Bytes.of_string data;
    }
  in
  let p =
    {
      Program.spec = rich_spec;
      ops = [| op "open" [||] [| "" |]; op "list" [| 0 |] [| ""; "" |]; op "join" [| 1; 1 |] [||] |];
    }
  in
  Alcotest.(check bool) "validate rejects" true (Result.is_error (Program.validate p));
  Alcotest.(check bool) "parse rejects" true
    (Result.is_error (Program.parse rich_spec (Program.serialize p)));
  Alcotest.(check (list string)) "verifier errors" [ "affine-use-after-consume" ]
    (List.map (fun (d : Nyx_analysis.Diag.t) -> d.Nyx_analysis.Diag.code) (Verifier.errors p));
  Alcotest.(check (array int)) "repair rebinds" [| 1; 2 |]
    (Program.repair p).Program.ops.(2).Program.args

(* [p] with one arg slot of one op bound to what another slot of the same
   op holds: a double consume, a borrow of a consumed value, a type
   mismatch, or harmless, depending on the slots. *)
let alias seed (p : Program.t) =
  let rng = Rng.create seed in
  let ops = Array.copy p.Program.ops in
  let n = Array.length ops in
  (if n > 0 then
     let i = Rng.int rng n in
     let args = Array.copy ops.(i).Program.args in
     let k = Array.length args in
     if k >= 2 then begin
       args.(Rng.int rng k) <- args.(Rng.int rng k);
       ops.(i) <- { (ops.(i)) with Program.args }
     end);
  { p with Program.ops }

let prop_validate_iff_no_errors =
  QCheck.Test.make ~name:"validate accepts iff the verifier finds no error" ~count:1000
    arb_case (fun c ->
      let valid = Program.repair c.c_prog in
      List.for_all
        (fun p -> Result.is_ok (Program.validate p) = (Verifier.errors p = []))
        (c.c_prog :: valid :: alias c.c_seed valid :: Array.to_list c.c_corpus))

(* A fixed 22-op lightftp-style program: a connection, ten packets, the
   snapshot opcode, ten more packets. *)
let lightftp_program () =
  let cmds =
    [ "USER fuzz\r\n"; "PASS fuzz\r\n"; "TYPE I\r\n"; "PASV\r\n"; "LIST\r\n"; "CWD /pub\r\n";
      "PWD\r\n"; "RETR file.txt\r\n"; "STOR up.bin\r\n"; "NOOP\r\n" ]
  in
  let spec = Campaign.net_spec () in
  Program.with_snapshot_at
    (Nyx_spec.Net_spec.seed_of_packets spec (List.map Bytes.of_string (cmds @ cmds)))
    11

(* CI guard: a mutant allocates for what it changes. Here the
   list-based mutator allocated ~3,660 words a call and the array one
   ~110 (OCaml 5.1); the bound leaves room for other compiler versions. *)
let test_mutate_alloc_bound () =
  let p = lightftp_program () in
  check_int "ops" 22 (Array.length p.Program.ops);
  let frozen = Option.get (Nyx_spec.Interp.snapshot_op_index p) + 1 in
  let dict = List.map Bytes.of_string [ "USER"; "PASS"; "TYPE I"; "PASV"; "LIST"; "RETR"; "STOR" ] in
  let corpus = [| p |] in
  let calls = 1_000 in
  let run mutate =
    let rng = Rng.create 1 in
    let last = ref p in
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      last := mutate rng
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int calls in
    (words, !last, Rng.state rng)
  in
  let words, last, state =
    run (fun rng -> Nyx_spec.Mutator.mutate rng ~frozen ~max_ops:44 ~dict ~corpus p)
  in
  let _, ref_last, ref_state =
    run (fun rng -> Ref_mutation.mutate rng ~frozen ~max_ops:44 ~dict ~corpus p)
  in
  Alcotest.(check bool) "same last mutant" true (last.Program.ops = ref_last.Program.ops);
  Alcotest.(check int64) "same final Rng.state" ref_state state;
  if words > 1_000.0 then
    Alcotest.failf "Mutator.mutate allocates %.1f words per call (bound 1000)" words

(* CI guard: the typed mutators allocate for what a candidate contains,
   like havoc. Average minor words per call over 1,000 calls on a fixed
   64-entry corpus: pure-ftpd's seeds and chained havoc mutants of them,
   each with a snapshot op after half its packets and frozen there.
   Measured (OCaml 5.1): splice 68.9, generate 134.4, typed
   [Mutation_engine.mutate] 116.0; before the value-table rewrite,
   1,041.6, 2,439.1 and 866.4. Each bound is the measured value plus 25%
   for other compiler versions. *)
let typed_word_bounds = [ ("splice", 86); ("generate", 168); ("typed mutate", 145) ]

let test_typed_alloc_bound () =
  let entry = Option.get (Nyx_targets.Registry.find "pure-ftpd") in
  let seeds =
    Array.of_list (Nyx_targets.Registry.seed_programs entry (Campaign.net_spec ()))
  in
  let rng = Rng.create 3 in
  let grown = Array.make 64 seeds.(0) in
  for i = 0 to 63 do
    grown.(i) <-
      (if i < Array.length seeds then seeds.(i)
       else Nyx_spec.Mutator.mutate rng ~corpus:seeds grown.(Rng.int rng i))
  done;
  let corpus =
    Array.map (fun p -> Program.with_snapshot_at p (Program.packet_count p / 2)) grown
  in
  let dict =
    List.map Bytes.of_string
      entry.Nyx_targets.Registry.target.Nyx_targets.Target.info.Nyx_targets.Target.dict
  in
  let ctxs =
    Array.map
      (fun p ->
        {
          ME.mx_frozen = Option.get (Nyx_spec.Interp.snapshot_op_index p) + 1;
          mx_max_ops = 25;
          mx_dict = dict;
          mx_corpus = corpus;
        })
      corpus
  in
  let spec = corpus.(0).Program.spec in
  let engine = ME.create ~name:"typed" (TM.mutators spec) in
  let generate = (TM.generate_mutator spec).ME.m_fn in
  let calls = 1_000 in
  let words f =
    let rng = Rng.create 1 in
    let w0 = Gc.minor_words () in
    for i = 0 to calls - 1 do
      let k = i mod Array.length corpus in
      ignore (Sys.opaque_identity (f rng ctxs.(k) corpus.(k)))
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  let splice = words TM.splice_mutator.ME.m_fn in
  let generate = words generate in
  let mutate = words (fun rng ctx p -> Some (ME.mutate engine rng ctx p)) in
  let over =
    List.filter_map
      (fun (name, words) ->
        let bound = List.assoc name typed_word_bounds in
        if words > float_of_int bound then
          Some (Printf.sprintf "%s allocates %.1f words per call (bound %d)" name words bound)
        else None)
      [ ("splice", splice); ("generate", generate); ("typed mutate", mutate) ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* CI guard: a suffix execution allocates for what the target does, not
   for host bookkeeping around it (edge-id strings, poll lists, decoding
   or copying the netemu state on restore). Words per
   [Executor.run_suffix] on each registry target's first seed with at
   least 2 packets, snapshot after half its packets. Measured after
   netemu's restore became a journal reverted in place, guest pages a
   page table, the disk overlay and device blob untouched when unwritten
   and the suffix env reused (OCaml 5.1): 161 (echo) to 1,718
   (kamailio), lightftp 217; before, 511 to 2,118, echo 520 and lightftp
   638. Under NYX_SANITIZE every restore also re-marshals netemu's state
   (50-100 words more: 217 to 1,770, lightftp 287), so that mode has its
   own bound. Each bound is the measured value plus 25% for other
   compiler versions: (target, plain, sanitized). *)
let suffix_word_bounds =
  [
    ("bftpd", 430, 550);
    ("dcmtk", 270, 340);
    ("dnsmasq", 330, 400);
    ("exim", 630, 750);
    ("forked-daapd", 850, 920);
    ("kamailio", 2_150, 2_220);
    ("lightftp", 280, 360);
    ("live555", 2_060, 2_150);
    ("openssh", 430, 510);
    ("openssl", 220, 290);
    ("proftpd", 410, 500);
    ("pure-ftpd", 300, 390);
    ("tinydtls", 440, 500);
    ("echo", 210, 280);
    ("firefox-ipc", 500, 600);
    ("mysql-client", 230, 300);
    ("lighttpd", 1_140, 1_210);
  ]

let test_suffix_alloc_bound () =
  let ns = Campaign.net_spec () in
  let entries = Nyx_targets.Registry.all () in
  check_int "every registry target bounded" (List.length suffix_word_bounds)
    (List.length entries);
  List.iter
    (fun (entry : Nyx_targets.Registry.entry) ->
      let target = entry.Nyx_targets.Registry.target in
      let name = target.Nyx_targets.Target.info.Nyx_targets.Target.name in
      let seed =
        List.find
          (fun p -> Program.packet_count p >= 2)
          (Nyx_targets.Registry.seed_programs entry ns)
      in
      let snap = Program.with_snapshot_at seed (Program.packet_count seed / 2) in
      let exec = Executor.create ~net_spec:ns target in
      match Executor.start_session exec snap with
      | Error _ -> Alcotest.failf "%s: session should start" name
      | Ok session ->
        let runs = 200 in
        ignore (Executor.run_suffix exec session snap);
        let w0 = Gc.minor_words () in
        for _ = 1 to runs do
          ignore (Executor.run_suffix exec session snap)
        done;
        let words = (Gc.minor_words () -. w0) /. float_of_int runs in
        Executor.end_session exec session;
        let bound =
          match List.find (fun (n, _, _) -> n = name) suffix_word_bounds with
          | _, plain, sanitized -> if Nyx_sim.Sanitize.armed then sanitized else plain
        in
        if words > float_of_int bound then
          Alcotest.failf "%s: run_suffix allocates %.0f words per exec (bound %d)" name words
            bound)
    entries

(* CI guard: a peer-mode packet costs what goes on the wire. Words per
   [Executor.run_suffix] in [--mode peer] on each peer script's seeds
   with at least 2 packets, snapshot after half the packets, 200 runs
   each: fault-free, and with all six encoder sites armed (rate 0.5,
   plan seed 7) and a length-lie selector on every packet. tinydtls and
   mysql-client sessions do not start when every packet lies about a
   length, so only the FTP scripts have faulted bounds. Measured after
   netemu's restore became a journal reverted in place (OCaml 5.1):
   lightftp 285, proftpd 315, tinydtls 331, mysql-client 214; faulted
   lightftp 602, proftpd 490. Before: 764, 777, 736, 576; faulted 1,215
   and 1,003. Under NYX_SANITIZE: 369, 394, 403, 273; faulted 686 and
   569. Each bound is the measured value plus 25%: (script, plain,
   sanitized), each (fault-free, faulted). *)
let peer_suffix_word_bounds =
  [
    ("lightftp", (360, Some 760), (470, Some 860));
    ("proftpd", (400, Some 620), (500, Some 720));
    ("tinydtls", (420, None), (510, None));
    ("mysql-client", (270, None), (350, None));
  ]

(* [p] with the fault selector of every packet payload set to [sel]. *)
let with_selector (p : Program.t) sel =
  let ops =
    Array.map
      (fun (op : Program.op) ->
        if (Spec.node p.Program.spec op.Program.node).Spec.nt_name <> "packet" then op
        else begin
          let d = Bytes.make 2 (Char.chr sel) in
          Bytes.set d 0 (Bytes.get op.Program.data.(0) 0);
          { op with Program.data = [| d |] }
        end)
      p.Program.ops
  in
  { p with Program.ops }

let test_peer_suffix_alloc_bound () =
  let ns = Campaign.net_spec () in
  let names = Nyx_peer.Peer_script.supported () in
  check_int "every peer script bounded" (List.length peer_suffix_word_bounds) (List.length names);
  let length_lie =
    1
    + Option.get
        (List.find_index (( = ) Nyx_resilience.Fault.Peer_length_lie)
           Nyx_resilience.Fault.peer_sites)
  in
  let faults =
    match Nyx_peer.Peer_fault.parse_spec "all:0.5" with Ok sp -> sp | Error m -> failwith m
  in
  (* Words per run over every seed whose session starts; [None] when
     none does. *)
  let words name ~faulted =
    let script = Option.get (Nyx_peer.Peer_script.find name) in
    let target = (Option.get (Nyx_targets.Registry.find name)).Nyx_targets.Registry.target in
    let runs = 200 in
    let total = ref 0.0 and measured = ref 0 in
    List.iter
      (fun seed ->
        if Program.packet_count seed >= 2 then begin
          let seed = if faulted then with_selector seed length_lie else seed in
          let snap = Program.with_snapshot_at seed (Program.packet_count seed / 2) in
          let exec = Executor.create ~peer:script ~net_spec:ns target in
          if faulted then
            Executor.arm_faults exec (Nyx_resilience.Plan.create faults (Rng.create 7));
          match Executor.start_session exec snap with
          | Error _ -> ()
          | Ok session ->
            ignore (Executor.run_suffix exec session snap);
            let w0 = Gc.minor_words () in
            for _ = 1 to runs do
              ignore (Executor.run_suffix exec session snap)
            done;
            total := !total +. (Gc.minor_words () -. w0);
            measured := !measured + runs;
            Executor.end_session exec session
        end)
      (Nyx_peer.Peer_script.seed_programs script ns);
    if !measured = 0 then None else Some (!total /. float_of_int !measured)
  in
  let over what name words bound =
    match (words, bound) with
    | Some w, Some bound when w > float_of_int bound ->
      [ Printf.sprintf "%s: %s run_suffix allocates %.0f words per exec (bound %d)" name what w
          bound ]
    | Some _, Some _ | None, None -> []
    | Some _, None -> [ Printf.sprintf "%s: a %s session started; bound it" name what ]
    | None, Some _ -> [ Printf.sprintf "%s: no %s session started" name what ]
  in
  let failures =
    List.concat_map
      (fun name ->
        let bound, faulted_bound =
          match List.find (fun (n, _, _) -> n = name) peer_suffix_word_bounds with
          | _, plain, sanitized -> if Nyx_sim.Sanitize.armed then sanitized else plain
        in
        over "peer" name (words name ~faulted:false) (Some bound)
        @ over "faulted peer" name (words name ~faulted:true) faulted_bound)
      names
  in
  if failures <> [] then Alcotest.fail (String.concat "; " failures)

(* ------------------------------------------------------------------ *)
(* Peer path: the in-place reply scans, the one-pass drain and the
   directly formatted FTP replies against verbatim copies of the code
   they replaced.                                                      *)

module Ref_peer = struct
  (* [Peer_script.expect_code] before the in-place scan. *)
  let expect_code codes ~stage:_ resp =
    let lines = String.split_on_char '\n' (Bytes.to_string resp) in
    List.exists
      (fun line ->
        let line = String.trim line in
        List.exists
          (fun code -> String.length line >= 3 && String.sub line 0 3 = code)
          codes)
      lines

  (* [Net.responses]' per-socket collect before the one-pass drain. *)
  type sock = { mutable out_rev : (int * bytes) list }

  let collect fl s =
    let mine, rest = List.partition (fun (f, _) -> f = fl) (List.rev s.out_rev) in
    s.out_rev <- List.rev rest;
    List.map snd mine

  (* [Ftp_common.reply_str] before direct formatting. *)
  let reply_str reply code text =
    reply (Bytes.of_string (Printf.sprintf "%d %s\r\n" code text))
end

(* Reply bytes over a small alphabet, so codes match often: digits,
   letters and every blank [String.trim] strips, '\n' included. *)
let reply_char = QCheck.Gen.oneofl [ '1'; '2'; '3'; '0'; 'a'; 'Z'; ' '; '\t'; '\r'; '\n'; '\012' ]

let prop_expect_code_matches_reference =
  (* Codes over the same alphabet (a blank in a code is what makes the
     trimming observable), and replies pieced together from the codes
     and short runs of that alphabet, so lines often hold a code. *)
  let run = QCheck.Gen.(string_size ~gen:reply_char (int_range 0 4)) in
  let case =
    QCheck.Gen.(
      list_size (int_range 0 4) run >>= fun codes ->
      let piece = if codes = [] then run else oneof [ oneofl codes; run ] in
      list_size (int_range 0 8) piece >|= fun pieces -> (codes, String.concat "" pieces))
  in
  QCheck.Test.make ~name:"in-place expect_code == split/trim/sub reference" ~count:3000
    (QCheck.make ~print:QCheck.Print.(pair (list string) string) case)
    (fun (codes, reply) ->
      let resp = Bytes.of_string reply in
      Nyx_peer.Peer_script.expect_code codes resp = Ref_peer.expect_code codes ~stage:0 resp)

(* [Net.responses] itself, on a UDP server that has heard from flows 1..3
   and sent them [sends] (oldest first) in a random interleaving. The
   drained flow gets what the reference returns; the stack is left just
   as a twin's that never sent that flow its replies (each such send
   replaced by a [getsockname], one syscall at the same cost, so the
   clocks and counters agree), so the other flows' replies stay queued
   in their order; and each flow then drains what the reference left
   it. *)
let prop_responses_matches_reference =
  let sends =
    QCheck.Gen.(
      list_size (int_range 0 8) (pair (int_range 1 3) (string_size ~gen:printable (int_range 0 4))))
  in
  QCheck.Test.make ~name:"one-pass reply drain == partition reference" ~count:3000
    QCheck.(make ~print:Print.(pair int (list (pair int string))) Gen.(pair (int_range 1 3) sends))
    (fun (fl, sends) ->
      let module Net = Nyx_netemu.Net in
      let server ~skip =
        let net = Net.create (Nyx_sim.Clock.create ()) in
        let fd = Net.socket net Net.Udp in
        Net.bind net fd 53;
        for _ = 1 to 3 do
          ignore (Net.udp_send_peer net ~port:53 (Bytes.of_string "q"))
        done;
        List.iter
          (fun (f, reply) ->
            if f = skip then ignore (Net.getsockname net fd)
            else ignore (Net.sendto net fd f (Bytes.of_string reply)))
          sends;
        net
      in
      let net = server ~skip:0 and twin = server ~skip:fl in
      let s = { Ref_peer.out_rev = List.rev_map (fun (f, r) -> (f, Bytes.of_string r)) sends } in
      Net.responses net fl = Ref_peer.collect fl s
      && Marshal.to_string net [] = Marshal.to_string twin []
      && List.for_all (fun f -> Net.responses net f = Ref_peer.collect f s) [ 1; 2; 3 ])

(* domain-safe: the ref is allocated per call of the property. *)
let prop_reply_str_matches_reference =
  QCheck.Test.make ~name:"direct reply_str == Printf reference, codes 0..1200" ~count:50
    QCheck.(string_gen_of_size Gen.(int_range 0 40) Gen.char)
    (fun text ->
      let sent reply_str code =
        let out = ref Bytes.empty in
        reply_str (fun b -> out := b) code text;
        !out
      in
      List.for_all
        (fun code ->
          Bytes.equal (sent Nyx_targets.Ftp_common.reply_str code) (sent Ref_peer.reply_str code))
        (List.init 1201 Fun.id))

(* ------------------------------------------------------------------ *)
(* Host state: netemu's journaled restore, its socket indexes and the
   guest page table, against the code they replaced.                  *)

module Aux = Nyx_snapshot.Aux_state

(* The parent's netemu state layout, to read [Net.image] back, and its
   two-fold [poll] and hashed fd lookup, verbatim over that state. *)
module Ref_net = struct
  type proto = Nyx_netemu.Net.proto = Tcp | Udp | Unix_sock

  type sock = {
    sid : int;
    proto : proto;
    mutable port : int;
    mutable listening : bool;
    mutable backlog : int list; (* pending connection sids, oldest first *)
    mutable inbox : (int * Bytes.t) list; (* (flow, packet), oldest first *)
    mutable partial : (int * Bytes.t) option; (* unconsumed tail of a packet *)
    mutable out_rev : (int * Bytes.t) list;
    mutable peer_open : bool;
    mutable eof_pending : bool;
    mutable refcount : int;
    mutable conn_flow : int; (* TCP/Unix connection's flow id; -1 otherwise *)
    mutable reply_flow : int; (* last recvfrom peer, for connectionless send *)
    mutable write_shut : bool;
    mutable options : (string * int) list;
    mutable outbound : bool;
  }

  type state = {
    socks : (int, sock) Hashtbl.t;
    fds : (int, int * int) Hashtbl.t; (* fd -> (sid, per-process refcount) *)
    flows : (int, int) Hashtbl.t; (* flow -> sid *)
    listeners : (int, int) Hashtbl.t; (* port -> sid *)
    mutable next_fd : int;
    mutable next_sid : int;
    mutable next_flow : int;
    mutable processes : int;
    mutable syscalls : int;
  }

  let of_image b : state = Marshal.from_bytes b 0

  exception Bad_fd of int

  let sock_of_fd st fd =
    match Hashtbl.find_opt st.fds fd with
    | None -> raise (Bad_fd fd)
    | Some (sid, _) -> Hashtbl.find st.socks sid

  type readiness = Idle | Acceptable | Readable

  let readiness s =
    match (s.backlog, s.proto) with
    | _ :: _, (Tcp | Unix_sock) when s.listening -> Acceptable
    | _ -> (
      match (s.inbox, s.partial) with
      | _ :: _, _ | _, Some _ -> Readable
      | [], None -> if s.eof_pending then Readable else Idle)

  let lowest_ready socks above =
    Hashtbl.fold
      (fun sid s best ->
        if sid <= above || 2 * sid > best then best
        else
          match readiness s with
          | Idle -> best
          | Acceptable -> 2 * sid
          | Readable -> (2 * sid) + 1)
      socks max_int

  let lowest_fd fds sid =
    Hashtbl.fold (fun fd (s, _) best -> if s = sid && fd < best then fd else best) fds max_int

  let rec poll_above st above =
    let key = lowest_ready st.socks above in
    if key = max_int then None
    else
      let fd = lowest_fd st.fds (key / 2) in
      if fd = max_int then poll_above st (key / 2)
      else if key land 1 = 0 then Some (`Accept fd)
      else Some (`Read fd)

  let poll st = poll_above st 0
end

(* A random script of target- and executor-side calls. Fds, flows and
   ports are drawn from small ranges so that most calls hit something;
   the rest fail the way a target's bad call would. *)
type net_op =
  | Socket of bool (* UDP *)
  | Bind of int * int
  | Listen of int
  | Connect of int
  | Accept_ready
  | Recv of int * int
  | Recvfrom of int * int
  | Send of int * string
  | Sendto of int * int * string
  | Close of int
  | Close_peer of int
  | Shutdown of int * int
  | Dup of int
  | Fork
  | Setsockopt of int * int
  | Send_peer of int * string
  | Udp_send of int * int option * string
  | Responses of int
  | Connect_out of int * int
  | Burst of int (* connections accepted on port 8080, past a resize *)
  | Bind_many of int (* sockets bound from this port up, past a resize *)
  | Poll
  | Peek of int * int

let print_net_op = function
  | Socket u -> Printf.sprintf "socket%s" (if u then "/udp" else "")
  | Bind (fd, p) -> Printf.sprintf "bind %d %d" fd p
  | Listen fd -> Printf.sprintf "listen %d" fd
  | Connect p -> Printf.sprintf "connect %d" p
  | Accept_ready -> "accept-ready"
  | Recv (fd, m) -> Printf.sprintf "recv %d %d" fd m
  | Recvfrom (fd, m) -> Printf.sprintf "recvfrom %d %d" fd m
  | Send (fd, d) -> Printf.sprintf "send %d %S" fd d
  | Sendto (fd, fl, d) -> Printf.sprintf "sendto %d %d %S" fd fl d
  | Close fd -> Printf.sprintf "close %d" fd
  | Close_peer fl -> Printf.sprintf "close-peer %d" fl
  | Shutdown (fd, h) -> Printf.sprintf "shutdown %d %d" fd h
  | Dup fd -> Printf.sprintf "dup %d" fd
  | Fork -> "fork"
  | Setsockopt (fd, v) -> Printf.sprintf "setsockopt %d %d" fd v
  | Send_peer (fl, d) -> Printf.sprintf "send-peer %d %S" fl d
  | Udp_send (p, fl, d) ->
    Printf.sprintf "udp-send %d %s %S" p (match fl with None -> "-" | Some f -> string_of_int f) d
  | Responses fl -> Printf.sprintf "responses %d" fl
  | Connect_out (fd, p) -> Printf.sprintf "connect-out %d %d" fd p
  | Burst n -> Printf.sprintf "burst %d" n
  | Bind_many p -> Printf.sprintf "bind-many %d" p
  | Poll -> "poll"
  | Peek (fd, m) -> Printf.sprintf "peek %d %d" fd m

let gen_net_op =
  let open QCheck.Gen in
  let fd = int_range 2 24 and flow = int_range 0 24 and port = oneofl [ 21; 53; 80; 8080 ] in
  let data = string_size ~gen:(char_range 'a' 'e') (int_range 0 6) in
  frequency
    [
      (3, map (fun u -> Socket u) bool);
      (2, map2 (fun fd p -> Bind (fd, p)) fd port);
      (2, map (fun fd -> Listen fd) fd);
      (4, map (fun p -> Connect p) port);
      (4, return Accept_ready);
      (4, map2 (fun fd m -> Recv (fd, m)) fd (int_range 1 8));
      (2, map2 (fun fd m -> Recvfrom (fd, m)) fd (int_range 1 8));
      (3, map2 (fun fd d -> Send (fd, d)) fd data);
      (2, map3 (fun fd fl d -> Sendto (fd, fl, d)) fd flow data);
      (3, map (fun fd -> Close fd) fd);
      (2, map (fun fl -> Close_peer fl) flow);
      (1, map2 (fun fd h -> Shutdown (fd, h)) fd (int_range 0 2));
      (2, map (fun fd -> Dup fd) fd);
      (1, return Fork);
      (2, map2 (fun fd v -> Setsockopt (fd, v)) fd (int_range 0 3));
      (4, map2 (fun fl d -> Send_peer (fl, d)) flow data);
      (2, map3 (fun p fl d -> Udp_send (p, fl, d)) port (opt flow) data);
      (3, map (fun fl -> Responses fl) flow);
      (1, map2 (fun fd p -> Connect_out (fd, p)) fd (int_range 9000 9003));
      (1, map (fun n -> Burst n) (int_range 20 40));
      (1, map (fun p -> Bind_many p) (oneofl [ 1000; 2000 ]));
      (3, return Poll);
      (1, map2 (fun fd m -> Peek (fd, m)) fd (int_range 1 8));
    ]

let option_names = [| "SO_REUSEADDR"; "TCP_NODELAY"; "SO_KEEPALIVE"; "SO_RCVBUF" |]

(* Runs [op] and describes what it returned or raised. Every fd a call
   hands out is tagged with an "id" option naming it, so a lookup that
   found the wrong socket shows in what later calls return. *)
let run_net_op net op =
  let module N = Nyx_netemu.Net in
  let b = Bytes.of_string and str = Bytes.to_string in
  let tag fd =
    N.setsockopt net fd "id" fd;
    string_of_int fd
  in
  let accept_ready () =
    match N.poll net with
    | Some (`Accept fd) -> tag (N.accept net fd)
    | Some (`Read fd) -> "read " ^ string_of_int fd
    | None -> "idle"
  in
  try
    match op with
    | Socket udp -> tag (N.socket net (if udp then N.Udp else N.Tcp))
    | Bind (fd, p) -> N.bind net fd p; "ok"
    | Listen fd -> N.listen net fd; "ok"
    | Connect p -> (
      match N.connect_peer net ~port:p with Some fl -> string_of_int fl | None -> "refused")
    | Accept_ready -> accept_ready ()
    | Recv (fd, max) -> str (N.recv net fd ~max)
    | Recvfrom (fd, max) ->
      let d, fl = N.recvfrom net fd ~max in
      Printf.sprintf "%s from %d" (str d) fl
    | Send (fd, d) -> string_of_int (N.send net fd (b d))
    | Sendto (fd, fl, d) -> string_of_int (N.sendto net fd fl (b d))
    | Close fd -> N.close net fd; "ok"
    | Close_peer fl -> N.close_peer net fl; "ok"
    | Shutdown (fd, h) ->
      N.shutdown net fd (match h with 0 -> `Read | 1 -> `Write | _ -> `Both);
      "ok"
    | Dup fd -> tag (N.dup net fd)
    | Fork -> string_of_int (N.fork net)
    | Setsockopt (fd, v) ->
      N.setsockopt net fd option_names.(v) v;
      string_of_int (N.getsockopt net fd option_names.(v))
    | Send_peer (fl, d) -> N.send_peer net fl (b d); "ok"
    | Udp_send (p, flow, d) -> (
      match N.udp_send_peer net ~port:p ?flow (b d) with
      | Some fl -> string_of_int fl
      | None -> "none")
    | Responses fl -> String.concat "|" (List.map str (N.responses net fl))
    | Connect_out (fd, p) -> string_of_int (N.connect_out net fd ~port:p)
    | Burst n ->
      for _ = 1 to n do
        ignore (N.connect_peer net ~port:8080)
      done;
      String.concat "," (List.init n (fun _ -> accept_ready ()))
    | Bind_many p ->
      for i = 0 to 11 do
        N.bind net (N.socket net N.Udp) (p + i)
      done;
      "ok"
    | Poll -> (
      match N.poll net with
      | Some (`Accept fd) -> "accept " ^ string_of_int fd
      | Some (`Read fd) -> "read " ^ string_of_int fd
      | None -> "idle")
    | Peek (fd, max) -> str (N.peek net fd ~max)
  with
  | N.Would_block fd -> Printf.sprintf "would-block %d" fd
  | N.Bad_fd fd -> Printf.sprintf "bad-fd %d" fd
  | Invalid_argument m -> "invalid: " ^ m
  | Not_found -> "not-found"

(* Every case starts from a TCP listener on 8080 and a UDP socket on
   53, then runs a random setup. *)
let net_preamble = [ Socket false; Bind (3, 8080); Listen 3; Socket true; Bind (4, 53) ]

let net_ops n = QCheck.Gen.list_size (QCheck.Gen.int_range 0 n) gen_net_op
let print_net_ops ops = String.concat "; " (List.map print_net_op ops)

let make_net () =
  let clock = Nyx_sim.Clock.create () in
  let net = Nyx_netemu.Net.create clock in
  let aux = Aux.create () in
  Nyx_netemu.Net.register_aux net aux;
  (net, aux, clock)

(* A capture's restore, from its base (journal reverted in place) and
   from another template (a fresh copy installed), against a twin that
   always installs a copy: a fresh capture moves the twin's base away
   before each round. After every restore both stacks must re-marshal
   to the captured image, and the next round's calls must return the
   same on both. *)
let prop_net_restore_matches_copy =
  let case =
    QCheck.Gen.(
      quad (net_ops 12) (net_ops 12) (list_size (int_range 1 3) (net_ops 16)) (net_ops 16))
  in
  QCheck.Test.make ~name:"journaled netemu restore == captured image == copied twin" ~count:400
    (QCheck.make
       ~print:(fun (setup, prefix, rounds, after) ->
         String.concat "\n"
           ([ "setup: " ^ print_net_ops setup; "prefix: " ^ print_net_ops prefix ]
           @ List.map (fun r -> "round: " ^ print_net_ops r) rounds
           @ [ "after root: " ^ print_net_ops after ]))
       case)
    (fun (setup, prefix, rounds, after) ->
      let module N = Nyx_netemu.Net in
      let net, aux, clock = make_net () and twin, taux, tclock = make_net () in
      let both ops = ignore (List.map (run_net_op net) ops, List.map (run_net_op twin) ops) in
      both (net_preamble @ setup);
      let root = Aux.capture aux clock and troot = Aux.capture taux tclock in
      let root_image = N.image net in
      both prefix;
      let inc = Aux.capture aux clock and tinc = Aux.capture taux tclock in
      let inc_image = N.image net in
      let round cap tcap image ops =
        ignore (Aux.capture taux tclock);
        let got = List.map (run_net_op net) ops and want = List.map (run_net_op twin) ops in
        Aux.restore aux clock cap;
        Aux.restore taux tclock tcap;
        got = want && Bytes.equal (N.image net) image && Bytes.equal (N.image twin) image
      in
      List.for_all (round inc tinc inc_image) rounds
      (* The root's template is not the base: the first restore installs
         a copy, which makes it the base for the second. *)
      && round root troot root_image after
      && round root troot root_image after
      && round inc tinc inc_image after)

(* After every call of a random script, with captures and restores
   mixed in, [poll] and each fd's socket agree with the parent's
   two-fold [poll] and hashed lookup run on the decoded image, and a
   packet sent on each flow reaches a socket exactly when the image
   maps the flow to an open one (the sends are undone by restoring a
   capture taken before them). Sockets no fd refers to arise from
   connects never accepted and from closed listeners with a backlog. *)
(* domain-safe: the ref is allocated per call of the property. *)
let prop_net_index_matches_reference =
  let step =
    QCheck.Gen.(frequency [ (12, map Option.some gen_net_op); (1, return None) ])
  in
  QCheck.Test.make ~name:"indexed poll and fd lookup == two-fold reference" ~count:400
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map (function Some op -> print_net_op op | None -> "capture/restore") ops))
       QCheck.Gen.(list_size (int_range 0 40) step))
    (fun steps ->
      let module N = Nyx_netemu.Net in
      let net, aux, clock = make_net () in
      List.iter (fun op -> ignore (run_net_op net op)) net_preamble;
      let cap = ref None in
      List.for_all
        (fun step ->
          (match (step, !cap) with
          | Some op, _ -> ignore (run_net_op net op)
          | None, None -> cap := Some (Aux.capture aux clock)
          | None, Some c -> Aux.restore aux clock c);
          let st = Ref_net.of_image (N.image net) in
          let lookup fd =
            match N.getsockopt net fd "id" with
            | v -> Some v
            | exception N.Bad_fd _ -> None
          and ref_lookup fd =
            match Ref_net.sock_of_fd st fd with
            | s -> Some (Option.value ~default:0 (List.assoc_opt "id" s.Ref_net.options))
            | exception Ref_net.Bad_fd _ -> None
          in
          let reaches fl =
            match N.send_peer net fl (Bytes.of_string "x") with
            | () -> true
            | exception Invalid_argument _ -> false
          and ref_reaches fl =
            match Hashtbl.find_opt st.Ref_net.flows fl with
            | Some sid -> Hashtbl.mem st.Ref_net.socks sid
            | None -> false
          in
          let want = Ref_net.poll st in
          N.poll net = want
          && List.for_all (fun fd -> lookup fd = ref_lookup fd) (List.init 60 Fun.id)
          &&
          let before = Aux.capture aux clock in
          let flows_agree =
            List.for_all (fun fl -> reaches fl = ref_reaches fl) (List.init 60 Fun.id)
          in
          Aux.restore aux clock before;
          flows_agree)
        steps)

(* The parent's [Hashtbl]-backed guest memory, verbatim. *)
module Ref_memory = struct
  open Nyx_vm

  type t = {
    pages : (int, Bytes.t) Hashtbl.t;
    num_pages : int;
    dirty : Dirty_log.t;
  }

  exception Fault of { addr : int; size : int }

  let create ~num_pages =
    { pages = Hashtbl.create 256; num_pages; dirty = Dirty_log.create ~num_pages }

  let size_bytes t = t.num_pages * Page.size

  let check t addr len =
    if addr < 0 || len < 0 || addr + len > size_bytes t then
      raise (Fault { addr; size = len })

  let materialize t pfn =
    match Hashtbl.find_opt t.pages pfn with
    | Some p -> p
    | None ->
      let p = Page.zero () in
      Hashtbl.replace t.pages pfn p;
      p

  let read t addr len =
    check t addr len;
    let out = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let a = addr + !pos in
      let pfn = Page.number a and off = Page.offset a in
      let chunk = min (len - !pos) (Page.size - off) in
      (match Hashtbl.find_opt t.pages pfn with
      | Some p -> Bytes.blit p off out !pos chunk
      | None -> Bytes.fill out !pos chunk '\000');
      pos := !pos + chunk
    done;
    out

  let write t addr data =
    let len = Bytes.length data in
    check t addr len;
    let pos = ref 0 in
    while !pos < len do
      let a = addr + !pos in
      let pfn = Page.number a and off = Page.offset a in
      let chunk = min (len - !pos) (Page.size - off) in
      let p = materialize t pfn in
      Bytes.blit data !pos p off chunk;
      ignore (Dirty_log.mark t.dirty pfn);
      pos := !pos + chunk
    done

  let single_page addr len = Page.offset addr + len <= Page.size

  let read_u8 t addr =
    check t addr 1;
    match Hashtbl.find_opt t.pages (Page.number addr) with
    | Some p -> Char.code (Bytes.get p (Page.offset addr))
    | None -> 0

  let write_u8 t addr v =
    check t addr 1;
    let pfn = Page.number addr in
    let p = materialize t pfn in
    Bytes.set p (Page.offset addr) (Char.chr (v land 0xff));
    ignore (Dirty_log.mark t.dirty pfn)

  let read_u16 t addr =
    if single_page addr 2 then begin
      check t addr 2;
      match Hashtbl.find_opt t.pages (Page.number addr) with
      | Some p -> Bytes.get_uint16_le p (Page.offset addr)
      | None -> 0
    end
    else begin
      let b = read t addr 2 in
      Char.code (Bytes.get b 0) lor (Char.code (Bytes.get b 1) lsl 8)
    end

  let write_u16 t addr v =
    if single_page addr 2 then begin
      check t addr 2;
      let pfn = Page.number addr in
      let p = materialize t pfn in
      Bytes.set_uint16_le p (Page.offset addr) (v land 0xffff);
      ignore (Dirty_log.mark t.dirty pfn)
    end
    else begin
      let b = Bytes.create 2 in
      Bytes.set b 0 (Char.chr (v land 0xff));
      Bytes.set b 1 (Char.chr ((v lsr 8) land 0xff));
      write t addr b
    end

  let read_i32 t addr =
    if single_page addr 4 then begin
      check t addr 4;
      match Hashtbl.find_opt t.pages (Page.number addr) with
      | Some p -> Int32.to_int (Bytes.get_int32_le p (Page.offset addr))
      | None -> 0
    end
    else begin
      let b = read t addr 4 in
      let v = ref 0 in
      for i = 3 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.get b i)
      done;
      (!v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)
    end

  let write_i32 t addr v =
    if single_page addr 4 then begin
      check t addr 4;
      let pfn = Page.number addr in
      let p = materialize t pfn in
      Bytes.set_int32_le p (Page.offset addr) (Int32.of_int v);
      ignore (Dirty_log.mark t.dirty pfn)
    end
    else begin
      let b = Bytes.create 4 in
      for i = 0 to 3 do
        Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xff))
      done;
      write t addr b
    end

  let read_i64 t addr =
    if single_page addr 8 then begin
      check t addr 8;
      match Hashtbl.find_opt t.pages (Page.number addr) with
      | Some p -> Int64.to_int (Bytes.get_int64_le p (Page.offset addr))
      | None -> 0
    end
    else begin
      let b = read t addr 8 in
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b i)))
      done;
      Int64.to_int !v
    end

  let write_i64 t addr v =
    if single_page addr 8 then begin
      check t addr 8;
      let pfn = Page.number addr in
      let p = materialize t pfn in
      Bytes.set_int64_le p (Page.offset addr) (Int64.of_int v);
      ignore (Dirty_log.mark t.dirty pfn)
    end
    else begin
      let b = Bytes.create 8 in
      let v64 = Int64.of_int v in
      for i = 0 to 7 do
        let byte =
          Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (8 * i)) 0xFFL)
        in
        Bytes.set b i (Char.chr byte)
      done;
      write t addr b
    end

  let clear_dirty t = Dirty_log.clear t.dirty

  let page_content t pfn =
    match Hashtbl.find_opt t.pages pfn with
    | Some p -> Some (Bytes.copy p)
    | None -> None

  let set_page t pfn content =
    if Bytes.length content <> Page.size then
      invalid_arg "Memory.set_page: wrong page size";
    match Hashtbl.find_opt t.pages pfn with
    | Some p -> Bytes.blit content 0 p 0 Page.size
    | None -> Hashtbl.replace t.pages pfn (Bytes.copy content)

  let drop_page t pfn = Hashtbl.remove t.pages pfn

  let materialized t = Hashtbl.to_seq t.pages

  let materialized_count t = Hashtbl.length t.pages
end

type mem_op =
  | Read of int * int
  | Write of int * string
  | Read_scalar of int * int (* width 1, 2, 4 or 8 *)
  | Write_scalar of int * int * int
  | Page_content of int
  | Set_page of int * char
  | Drop_page of int
  | Clear_dirty

(* 700 pages: three full 256-page leaves of the directory's four. *)
let mem_pages = 700

let gen_mem_op =
  let open QCheck.Gen in
  let page_size = Nyx_vm.Page.size in
  let pfn = int_range 0 (mem_pages - 1) in
  (* Mostly near page boundaries, sometimes anywhere, sometimes out of
     range. *)
  let addr =
    frequency
      [
        (6, map2 (fun p off -> (p * page_size) + off) pfn (int_range (-9) 9));
        (2, int_range 0 ((mem_pages * page_size) - 1));
        (1, int_range ((mem_pages * page_size) - 12) ((mem_pages * page_size) + 4));
        (1, int_range (-8) (-1));
      ]
  in
  frequency
    [
      (3, map2 (fun a n -> Read (a, n)) addr (int_range 0 (2 * page_size)));
      (3, map2 (fun a d -> Write (a, d)) addr (string_size ~gen:char (int_range 0 (page_size + 20))));
      (4, map2 (fun a w -> Read_scalar (a, w)) addr (oneofl [ 1; 2; 4; 8 ]));
      (4, map3 (fun a w v -> Write_scalar (a, w, v)) addr (oneofl [ 1; 2; 4; 8 ]) int);
      (2, map (fun p -> Page_content p) pfn);
      (2, map2 (fun p c -> Set_page (p, c)) pfn char);
      (2, map (fun p -> Drop_page p) pfn);
      (1, return Clear_dirty);
    ]

let print_mem_op = function
  | Read (a, n) -> Printf.sprintf "read %d %d" a n
  | Write (a, d) -> Printf.sprintf "write %d (%d bytes)" a (String.length d)
  | Read_scalar (a, w) -> Printf.sprintf "read%d %d" (8 * w) a
  | Write_scalar (a, w, v) -> Printf.sprintf "write%d %d %d" (8 * w) a v
  | Page_content p -> Printf.sprintf "page-content %d" p
  | Set_page (p, c) -> Printf.sprintf "set-page %d %C" p c
  | Drop_page p -> Printf.sprintf "drop-page %d" p
  | Clear_dirty -> "clear-dirty"

(* Both memories, one op at a time: each op returns the same, and the
   pages (as a set), their count and the dirty stacks stay equal. *)
(* domain-safe: the pages are allocated per call of the property. *)
let prop_page_table_matches_hashtbl =
  QCheck.Test.make ~name:"page-table memory == Hashtbl-backed reference" ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_mem_op ops))
       QCheck.Gen.(list_size (int_range 0 60) gen_mem_op))
    (fun ops ->
      let module M = Nyx_vm.Memory in
      let module R = Ref_memory in
      let m = M.create ~num_pages:mem_pages and r = R.create ~num_pages:mem_pages in
      let run f g =
        let got = match f () with v -> Ok v | exception M.Fault { addr; size } -> Error (addr, size)
        and want = match g () with v -> Ok v | exception R.Fault { addr; size } -> Error (addr, size) in
        got = want
      in
      let page c = Bytes.make Nyx_vm.Page.size c in
      let pages seq = List.sort compare (List.of_seq (Seq.map (fun (p, b) -> (p, Bytes.to_string b)) seq)) in
      List.for_all
        (fun op ->
          (match op with
          | Read (a, n) -> run (fun () -> M.read m a n) (fun () -> R.read r a n)
          | Write (a, d) ->
            run (fun () -> M.write m a (Bytes.of_string d)) (fun () -> R.write r a (Bytes.of_string d))
          | Read_scalar (a, 1) -> run (fun () -> M.read_u8 m a) (fun () -> R.read_u8 r a)
          | Read_scalar (a, 2) -> run (fun () -> M.read_u16 m a) (fun () -> R.read_u16 r a)
          | Read_scalar (a, 4) -> run (fun () -> M.read_i32 m a) (fun () -> R.read_i32 r a)
          | Read_scalar (a, _) -> run (fun () -> M.read_i64 m a) (fun () -> R.read_i64 r a)
          | Write_scalar (a, 1, v) -> run (fun () -> M.write_u8 m a v) (fun () -> R.write_u8 r a v)
          | Write_scalar (a, 2, v) -> run (fun () -> M.write_u16 m a v) (fun () -> R.write_u16 r a v)
          | Write_scalar (a, 4, v) -> run (fun () -> M.write_i32 m a v) (fun () -> R.write_i32 r a v)
          | Write_scalar (a, _, v) -> run (fun () -> M.write_i64 m a v) (fun () -> R.write_i64 r a v)
          | Page_content p -> M.page_content m p = R.page_content r p
          | Set_page (p, c) ->
            M.set_page m p (page c);
            R.set_page r p (page c);
            true
          | Drop_page p ->
            M.drop_page m p;
            R.drop_page r p;
            true
          | Clear_dirty ->
            M.clear_dirty m;
            R.clear_dirty r;
            true)
          && pages (M.materialized m) = pages (R.materialized r)
          && M.materialized_count m = R.materialized_count r
          && Nyx_vm.Dirty_log.to_list (M.dirty m) = Nyx_vm.Dirty_log.to_list r.R.dirty)
        ops)

(* Restoring netemu state must not allocate on the major heap. Decoding
   a captured image with [Marshal.from_bytes] did: past 256 words the
   decoded block goes straight to the major heap, and a state with four
   connections is that big (357 words per restore here before). *)
let test_netemu_restore_stays_minor () =
  let clock = Nyx_sim.Clock.create () in
  let net = Nyx_netemu.Net.create clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  Nyx_netemu.Net.register_aux net aux;
  let lfd = Nyx_netemu.Net.socket net Nyx_netemu.Net.Tcp in
  Nyx_netemu.Net.bind net lfd 21;
  Nyx_netemu.Net.listen net lfd;
  for i = 1 to 4 do
    let flow = Option.get (Nyx_netemu.Net.connect_peer net ~port:21) in
    let cfd = Nyx_netemu.Net.accept net lfd in
    Nyx_netemu.Net.setsockopt net cfd "TCP_NODELAY" 1;
    Nyx_netemu.Net.send_peer net flow (Bytes.of_string (Printf.sprintf "USER u%d\r\n" i));
    ignore (Nyx_netemu.Net.send net cfd (Bytes.of_string "220 ready\r\n"))
  done;
  let cap = Nyx_snapshot.Aux_state.capture aux clock in
  check_int "four connections" 5 (Nyx_netemu.Net.open_socket_count net);
  let restores = 1_000 in
  let direct () =
    (* A minor collection flushes this domain's allocation counters. *)
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  (* Start from an idle major GC: a cycle left in progress by earlier
     tests moves [major_words - promoted_words] by itself. *)
  Gc.full_major ();
  let m0 = direct () in
  for _ = 1 to restores do
    Nyx_snapshot.Aux_state.restore aux clock cap
  done;
  let per_restore = (direct () -. m0) /. float_of_int restores in
  if per_restore >= 1.0 then
    Alcotest.failf "netemu restore allocates %.1f major-heap words per restore" per_restore

(* ------------------------------------------------------------------ *)
(* Campaign identity: fixed-seed results recorded from the pre-change
   implementation. Every field below (budget 8 virtual seconds, seed 7)
   was captured by running the list-based/full-scan code.              *)

type golden = {
  g_final_edges : int;
  g_execs : int;
  g_virtual_ns : int;
  g_corpus_size : int;
  g_crashes : (string * int * int) list;  (* kind, found_ns, found_exec *)
  g_timeline_n : int;
}

let check_golden name g (r : Report.campaign_result) =
  check_int (name ^ ": final_edges") g.g_final_edges r.Report.final_edges;
  check_int (name ^ ": execs") g.g_execs r.Report.execs;
  check_int (name ^ ": virtual_ns") g.g_virtual_ns r.Report.virtual_ns;
  check_int (name ^ ": corpus_size") g.g_corpus_size r.Report.corpus_size;
  Alcotest.(check (list (triple string int int)))
    (name ^ ": crashes") g.g_crashes
    (List.map
       (fun c -> (c.Report.kind, c.Report.found_ns, c.Report.found_exec))
       r.Report.crashes);
  check_int
    (name ^ ": timeline samples")
    g.g_timeline_n
    (List.length (Nyx_sim.Stats.Timeline.samples r.Report.timeline))

let identity_cfg policy trim =
  {
    Campaign.default_config with
    Campaign.budget_ns = 8_000_000_000;
    max_execs = 25_000;
    policy;
    trim;
    seed = 7;
  }

let echo_entry () = Option.get (Nyx_targets.Registry.find "echo")

let test_identity_balanced_echo () =
  check_golden "nyx-balanced/echo"
    {
      g_final_edges = 27;
      g_execs = 23151;
      g_virtual_ns = 8_000_443_636;
      g_corpus_size = 68;
      g_crashes = [ ("assertion", 20_932_397, 149) ];
      g_timeline_n = 88;
    }
    (Campaign.run (identity_cfg Policy.Balanced false) (echo_entry ()))

let test_identity_aggressive_trim_echo () =
  (* Exercises trim_program's journal-view comparison on the hot path. *)
  check_golden "nyx-aggressive-trim/echo"
    {
      g_final_edges = 27;
      g_execs = 25_000;
      g_virtual_ns = 7_977_534_076;
      g_corpus_size = 65;
      g_crashes = [ ("assertion", 48_414_257, 403) ];
      g_timeline_n = 91;
    }
    (Campaign.run (identity_cfg Policy.Aggressive true) (echo_entry ()))

let test_identity_aflnet_state_aware () =
  (* Exercises schedule_state_aware's float-sum-order-preserving walk. *)
  let entry = Option.get (Nyx_targets.Registry.find "lightftp") in
  match
    Nyx_baselines.Fuzzers.run Nyx_baselines.Fuzzers.aflnet ~budget_ns:8_000_000_000
      ~max_execs:4_000 ~seed:7 entry
  with
  | None -> Alcotest.fail "aflnet should run on lightftp"
  | Some r ->
    check_golden "aflnet/lightftp"
      {
        g_final_edges = 33;
        g_execs = 72;
        g_virtual_ns = 8_011_418_870;
        g_corpus_size = 21;
        g_crashes = [];
        g_timeline_n = 34;
      }
      r

(* Typed-engine and peer-mode identity. Typed splice and generate
   candidates draw inside [Program.repair] on most grafted ops, and peer
   mode mutates action-selector programs under armed encoder faults, so
   neither is covered by the havoc goldens above. Recorded at commit
   5b69560, before the one-pass repair and the in-place mutators. *)

let check_outcome name ~execs ~final_edges ~corpus_size ~crash_kinds
    (r : Report.campaign_result) =
  check_int (name ^ ": execs") execs r.Report.execs;
  check_int (name ^ ": final_edges") final_edges r.Report.final_edges;
  check_int (name ^ ": corpus_size") corpus_size r.Report.corpus_size;
  Alcotest.(check (list string))
    (name ^ ": crash kinds") crash_kinds
    (List.map (fun c -> c.Report.kind) r.Report.crashes)

let test_identity_typed_dynamic_trim () =
  let entry = Option.get (Nyx_targets.Registry.find "pure-ftpd") in
  let cfg =
    {
      Campaign.default_config with
      Campaign.budget_ns = 8_000_000_000;
      max_execs = 10_000;
      policy = Policy.Dynamic;
      engine = Engines.Typed;
      trim = true;
      seed = 7;
    }
  in
  check_outcome "typed+dynamic+trim/pure-ftpd" ~execs:10_000 ~final_edges:74
    ~corpus_size:115 ~crash_kinds:[] (Campaign.run cfg entry)

let test_identity_peer_faults () =
  let entry = Option.get (Nyx_targets.Registry.find "lightftp") in
  let script = Option.get (Nyx_peer.Peer_script.find "lightftp") in
  let faults =
    match
      Nyx_peer.Peer_fault.parse_spec
        "flip:0.5,truncate:0.5,duplicate:0.5,length-lie:1.0,desync-frame:0.5,drop-field:0.5"
    with
    | Ok sp -> sp
    | Error m -> Alcotest.fail m
  in
  let cfg =
    {
      Campaign.default_config with
      Campaign.budget_ns = 8_000_000_000;
      max_execs = 10_000;
      asan = true;
      seed = 7;
    }
  in
  check_outcome "peer+faults/lightftp" ~execs:4_670 ~final_edges:76 ~corpus_size:90
    ~crash_kinds:[] (Campaign.run ~peer:script ~peer_faults:faults cfg entry)

let () =
  Alcotest.run "nyx_hotpath"
    [
      ( "coverage journal",
        [
          QCheck_alcotest.to_alcotest prop_journal_matches_model;
          QCheck_alcotest.to_alcotest prop_reset_equiv_slow;
          QCheck_alcotest.to_alcotest prop_merge_equiv_slow;
          QCheck_alcotest.to_alcotest prop_save_restore;
        ] );
      ( "corpus",
        [
          QCheck_alcotest.to_alcotest prop_corpus_picks_identical;
          Alcotest.test_case "programs snapshot cached" `Quick
            test_corpus_programs_cached;
        ] );
      ( "campaign identity",
        [
          Alcotest.test_case "nyx balanced (echo)" `Quick test_identity_balanced_echo;
          Alcotest.test_case "nyx aggressive + trim (echo)" `Quick
            test_identity_aggressive_trim_echo;
          Alcotest.test_case "aflnet state-aware (lightftp)" `Quick
            test_identity_aflnet_state_aware;
          Alcotest.test_case "typed engine + dynamic + trim (pure-ftpd)" `Quick
            test_identity_typed_dynamic_trim;
          Alcotest.test_case "peer mode, six encoder faults (lightftp)" `Quick
            test_identity_peer_faults;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "rng == boxed splitmix64" `Quick
            test_rng_matches_boxed_reference;
          QCheck_alcotest.to_alcotest prop_repair_matches_reference;
          QCheck_alcotest.to_alcotest prop_repair_keeps_valid_ops;
          QCheck_alcotest.to_alcotest prop_mutator_matches_reference;
          QCheck_alcotest.to_alcotest prop_havoc_matches_reference;
          QCheck_alcotest.to_alcotest prop_typed_matches_reference;
          Alcotest.test_case "validate rejects a double consume" `Quick
            test_validate_double_consume;
          QCheck_alcotest.to_alcotest prop_validate_iff_no_errors;
          Alcotest.test_case "mutate allocation bound" `Quick test_mutate_alloc_bound;
          Alcotest.test_case "typed mutation allocation bound" `Quick
            test_typed_alloc_bound;
        ] );
      ( "peer path",
        [
          QCheck_alcotest.to_alcotest prop_expect_code_matches_reference;
          QCheck_alcotest.to_alcotest prop_responses_matches_reference;
          QCheck_alcotest.to_alcotest prop_reply_str_matches_reference;
        ] );
      ( "exec allocation",
        [
          Alcotest.test_case "run_suffix allocation bound" `Quick test_suffix_alloc_bound;
          Alcotest.test_case "peer run_suffix allocation bound" `Quick
            test_peer_suffix_alloc_bound;
          Alcotest.test_case "netemu restore stays minor" `Quick
            test_netemu_restore_stays_minor;
        ] );
      ( "host state",
        [
          QCheck_alcotest.to_alcotest prop_net_restore_matches_copy;
          QCheck_alcotest.to_alcotest prop_net_index_matches_reference;
          QCheck_alcotest.to_alcotest prop_page_table_matches_hashtbl;
        ] );
    ]
