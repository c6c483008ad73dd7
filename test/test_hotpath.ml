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
   the netemu image on restore). Words per [Executor.run_suffix] on each
   registry target's first seed with at least 2 packets, snapshot after
   half its packets. Measured after binding edge ids once (OCaml 5.1):
   586 (mysql-client) to 2,194 (kamailio), lightftp 931; before, 781 to
   2,784 and lightftp 1,288. Each bound is the measured value plus 25%
   for other compiler versions. *)
let suffix_word_bounds =
  [
    ("bftpd", 1_740);
    ("dcmtk", 840);
    ("dnsmasq", 930);
    ("exim", 1_530);
    ("forked-daapd", 1_410);
    ("kamailio", 2_750);
    ("lightftp", 1_170);
    ("live555", 2_740);
    ("openssh", 1_110);
    ("openssl", 770);
    ("proftpd", 1_220);
    ("pure-ftpd", 1_190);
    ("tinydtls", 1_040);
    ("echo", 760);
    ("firefox-ipc", 1_300);
    ("mysql-client", 740);
    ("lighttpd", 1_700);
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
        let bound = List.assoc name suffix_word_bounds in
        if words > float_of_int bound then
          Alcotest.failf "%s: run_suffix allocates %.0f words per exec (bound %d)" name words
            bound)
    entries

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
      ( "exec allocation",
        [
          Alcotest.test_case "run_suffix allocation bound" `Quick test_suffix_alloc_bound;
          Alcotest.test_case "netemu restore stays minor" `Quick
            test_netemu_restore_stays_minor;
        ] );
    ]
