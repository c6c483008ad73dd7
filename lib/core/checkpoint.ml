(* Crash-safe campaign checkpoints.

   A checkpoint captures the deterministic state a campaign needs to
   continue exactly where it left off: configuration, virtual clock, RNG
   states, corpus, cumulative coverage, crash log, snapshot-engine shape
   and (when armed) the fault plan. Guest memory, disk overlays and
   device state are deliberately absent — they are reconstructed by
   re-booting the target (deterministic) plus the engine's observable
   state (see Engine.persisted); page contents are always overwritten
   before the resumed run can read them.

   Format: "NYXCKP1" magic followed by a flat big-endian binary encoding
   (int64 framing for every integer and length). Files are written via
   Atomic_io (tmp + rename), so a crash mid-write never corrupts the
   previous checkpoint. *)

let magic = "NYXCKP1"

type corpus_entry = {
  ce_program : bytes;  (* Program.serialize *)
  ce_exec_ns : int;
  ce_discovered_ns : int;
  ce_state_code : int;
}

type crash = {
  cr_kind : string;
  cr_detail : string;
  cr_found_ns : int;
  cr_found_exec : int;
  cr_input : bytes;
}

type t = {
  (* configuration (the resumed run validates/reuses it) *)
  c_policy : string;
  c_budget_ns : int;
  c_max_execs : int;
  c_seed : int;
  c_asan : bool;
  c_stop_on_solve : bool;
  c_trim : bool;
  c_sample_interval_ns : int;
  c_target : string;
  (* progress *)
  c_clock_ns : int;
  c_execs : int;
  c_last_sample : int;
  c_solved_ns : int option;
  (* randomness *)
  c_sched_rng : int64;
  c_mut_rng : int64;
  c_policy_state : Policy.state;
  (* discovered state *)
  c_corpus : corpus_entry list;  (* oldest first: ids re-assign in order *)
  c_virgin : bytes;  (* cumulative coverage map *)
  c_timeline : (int * int64) list;  (* oldest first; values as float bits *)
  c_crashes : crash list;  (* newest first, as the campaign stores them *)
  c_engine : Nyx_snapshot.Engine.persisted;
  (* derived-at-setup state that must not be re-derived from seeds *)
  c_dict : bytes list;
  c_max_ops : int;
  (* mutation engine *)
  c_exec_timeline : (int * int64) list;  (* oldest first; values as float bits *)
  c_mut_engine : string;  (* Engines.name form *)
  c_mut_weights : (string * int64) list;  (* weight overrides; float bits *)
  c_mut_state : Nyx_spec.Mutation_engine.state;
  (* resilience *)
  c_faults : (string * Nyx_resilience.Plan.state) option;
  c_profile : Nyx_obs.Profile.state option;
  (* cooperating peer (--mode peer); None for bytecode campaigns *)
  c_peer : Nyx_peer.Peer_driver.state option;
}

(* ------------------------------------------------------------------ *)
(* Encoding. [add_int], [add_bytes] and [add_list] (and their readers
   below) are also the framing of Fleet's NYXFLT1 files.               *)

let add_i64 = Buffer.add_int64_be
let add_int b v = add_i64 b (Int64.of_int v)
let add_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let add_bytes b s =
  add_int b (Bytes.length s);
  Buffer.add_bytes b s

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_opt f b = function
  | None -> add_bool b false
  | Some v ->
    add_bool b true;
    f b v

let add_list f b l =
  add_int b (List.length l);
  List.iter (f b) l

let add_int_list = add_list add_int

let add_int_array b a =
  add_int b (Array.length a);
  Array.iter (add_int b) a

let add_corpus_entry b e =
  add_bytes b e.ce_program;
  add_int b e.ce_exec_ns;
  add_int b e.ce_discovered_ns;
  add_int b e.ce_state_code

let add_crash b c =
  add_str b c.cr_kind;
  add_str b c.cr_detail;
  add_int b c.cr_found_ns;
  add_int b c.cr_found_exec;
  add_bytes b c.cr_input

let add_sample b (t, bits) =
  add_int b t;
  add_i64 b bits

let add_dyn_state b (d : Policy.dyn_state) =
  add_int b d.Policy.ds_id;
  add_int_list b d.Policy.ds_cands;
  add_int_list b d.Policy.ds_stale;
  add_int b d.Policy.ds_root_stale;
  add_int b d.Policy.ds_genuine;
  add_bool b d.Policy.ds_probed;
  add_int b d.Policy.ds_full_ns;
  add_int b d.Policy.ds_setup_ns;
  add_int b d.Policy.ds_round_ns;
  add_int b d.Policy.ds_pages;
  add_int b d.Policy.ds_meas_idx;
  add_int b d.Policy.ds_cur;
  add_int b d.Policy.ds_cooldown;
  add_int b d.Policy.ds_moves

let add_policy_state b (s : Policy.state) =
  add_i64 b s.Policy.st_rng;
  add_list
    (fun b (k, v) ->
      add_int b k;
      add_int b v)
    b s.Policy.st_cursor;
  add_list add_dyn_state b s.Policy.st_dyn;
  add_int b s.Policy.st_probes;
  add_int b s.Policy.st_probe_hashes;
  add_int b s.Policy.st_probe_skipped

let add_engine b (p : Nyx_snapshot.Engine.persisted) =
  add_int_list b p.Nyx_snapshot.Engine.p_mirror;
  add_int b p.Nyx_snapshot.Engine.p_creates_since_remirror;
  let s = p.Nyx_snapshot.Engine.p_stats in
  add_int b s.Nyx_snapshot.Engine.root_restores;
  add_int b s.Nyx_snapshot.Engine.incremental_creates;
  add_int b s.Nyx_snapshot.Engine.incremental_restores;
  add_int b s.Nyx_snapshot.Engine.pages_restored;
  add_int b s.Nyx_snapshot.Engine.remirrors;
  add_int_list b p.Nyx_snapshot.Engine.p_dirty

let add_plan_state b ((spec, s) : string * Nyx_resilience.Plan.state) =
  add_str b spec;
  add_i64 b s.Nyx_resilience.Plan.st_rng;
  add_int b s.Nyx_resilience.Plan.st_seq;
  add_int_array b s.Nyx_resilience.Plan.st_injected;
  add_int_array b s.Nyx_resilience.Plan.st_recovered

let add_profile_state b (s : Nyx_obs.Profile.state) =
  add_int_array b s.Nyx_obs.Profile.ps_counts;
  add_int_array b s.Nyx_obs.Profile.ps_virt

let add_peer_state b (s : Nyx_peer.Peer_driver.state) =
  add_int b s.Nyx_peer.Peer_driver.pd_actions;
  add_int_array b s.Nyx_peer.Peer_driver.pd_fired;
  add_int b s.Nyx_peer.Peer_driver.pd_desyncs;
  add_int b s.Nyx_peer.Peer_driver.pd_restarts;
  add_int b s.Nyx_peer.Peer_driver.pd_quarantines;
  add_int b s.Nyx_peer.Peer_driver.pd_backoff_ns

let add_weight b (n, bits) =
  add_str b n;
  add_i64 b bits

let add_mut_state b (m : Nyx_spec.Mutation_engine.mstate) =
  add_str b m.Nyx_spec.Mutation_engine.ms_name;
  add_int b m.Nyx_spec.Mutation_engine.ms_attempts;
  add_int b m.Nyx_spec.Mutation_engine.ms_rejected;
  add_int b m.Nyx_spec.Mutation_engine.ms_accepts;
  add_i64 b m.Nyx_spec.Mutation_engine.ms_credit

let encode t =
  let b = Buffer.create 65536 in
  Buffer.add_string b magic;
  add_str b t.c_policy;
  add_int b t.c_budget_ns;
  add_int b t.c_max_execs;
  add_int b t.c_seed;
  add_bool b t.c_asan;
  add_bool b t.c_stop_on_solve;
  add_bool b t.c_trim;
  add_int b t.c_sample_interval_ns;
  add_str b t.c_target;
  add_int b t.c_clock_ns;
  add_int b t.c_execs;
  add_int b t.c_last_sample;
  add_opt add_int b t.c_solved_ns;
  add_i64 b t.c_sched_rng;
  add_i64 b t.c_mut_rng;
  add_policy_state b t.c_policy_state;
  add_list add_corpus_entry b t.c_corpus;
  add_bytes b t.c_virgin;
  add_list add_sample b t.c_timeline;
  add_list add_crash b t.c_crashes;
  add_engine b t.c_engine;
  add_list add_bytes b t.c_dict;
  add_int b t.c_max_ops;
  add_list add_sample b t.c_exec_timeline;
  add_str b t.c_mut_engine;
  add_list add_weight b t.c_mut_weights;
  add_list add_mut_state b t.c_mut_state;
  add_opt add_plan_state b t.c_faults;
  add_opt add_profile_state b t.c_profile;
  add_opt add_peer_state b t.c_peer;
  Buffer.to_bytes b

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)

exception Corrupt of string

type cursor = { data : bytes; mutable pos : int }

let left c = Bytes.length c.data - c.pos

let need c n = if n > left c then raise (Corrupt "truncated checkpoint")

let cursor ~magic data =
  let c = { data; pos = 0 } in
  let n = String.length magic in
  need c n;
  if Bytes.sub_string data 0 n <> magic then raise (Corrupt "bad magic");
  c.pos <- n;
  c

let expect_end c = if left c <> 0 then raise (Corrupt "trailing garbage")

let get_i64 c =
  need c 8;
  let v = Bytes.get_int64_be c.data c.pos in
  c.pos <- c.pos + 8;
  v

let get_int c = Int64.to_int (get_i64 c)

(* Every encoded list element takes at least one byte, so a count larger
   than the bytes left is corrupt: reject it before allocating. *)
let get_len c =
  let n = get_int c in
  if n < 0 || n > left c then raise (Corrupt "bad length field");
  n

let get_bool c =
  need c 1;
  let v = Bytes.get c.data c.pos in
  c.pos <- c.pos + 1;
  match v with
  | '\000' -> false
  | '\001' -> true
  | _ -> raise (Corrupt "bad boolean")

let get_bytes c =
  let n = get_len c in
  let s = Bytes.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_str c = Bytes.to_string (get_bytes c)

let get_opt f c = if get_bool c then Some (f c) else None

let get_list f c =
  let n = get_len c in
  List.init n (fun _ -> f c)

let get_int_list = get_list get_int

let get_int_array c = Array.of_list (get_int_list c)

let get_corpus_entry c =
  let ce_program = get_bytes c in
  let ce_exec_ns = get_int c in
  let ce_discovered_ns = get_int c in
  let ce_state_code = get_int c in
  { ce_program; ce_exec_ns; ce_discovered_ns; ce_state_code }

let get_crash c =
  let cr_kind = get_str c in
  let cr_detail = get_str c in
  let cr_found_ns = get_int c in
  let cr_found_exec = get_int c in
  let cr_input = get_bytes c in
  { cr_kind; cr_detail; cr_found_ns; cr_found_exec; cr_input }

let get_sample c =
  let t = get_int c in
  let bits = get_i64 c in
  (t, bits)

let get_dyn_state c =
  let ds_id = get_int c in
  let ds_cands = get_int_list c in
  let ds_stale = get_int_list c in
  let ds_root_stale = get_int c in
  let ds_genuine = get_int c in
  let ds_probed = get_bool c in
  let ds_full_ns = get_int c in
  let ds_setup_ns = get_int c in
  let ds_round_ns = get_int c in
  let ds_pages = get_int c in
  let ds_meas_idx = get_int c in
  let ds_cur = get_int c in
  let ds_cooldown = get_int c in
  let ds_moves = get_int c in
  {
    Policy.ds_id;
    ds_cands;
    ds_stale;
    ds_root_stale;
    ds_genuine;
    ds_probed;
    ds_full_ns;
    ds_setup_ns;
    ds_round_ns;
    ds_pages;
    ds_meas_idx;
    ds_cur;
    ds_cooldown;
    ds_moves;
  }

let get_policy_state c =
  let st_rng = get_i64 c in
  let st_cursor =
    get_list
      (fun c ->
        let k = get_int c in
        let v = get_int c in
        (k, v))
      c
  in
  let st_dyn = get_list get_dyn_state c in
  let st_probes = get_int c in
  let st_probe_hashes = get_int c in
  let st_probe_skipped = get_int c in
  { Policy.st_rng; st_cursor; st_dyn; st_probes; st_probe_hashes; st_probe_skipped }

let get_engine c =
  let p_mirror = get_int_list c in
  let p_creates_since_remirror = get_int c in
  let root_restores = get_int c in
  let incremental_creates = get_int c in
  let incremental_restores = get_int c in
  let pages_restored = get_int c in
  let remirrors = get_int c in
  let p_dirty = get_int_list c in
  {
    Nyx_snapshot.Engine.p_mirror;
    p_creates_since_remirror;
    p_stats =
      {
        Nyx_snapshot.Engine.root_restores;
        incremental_creates;
        incremental_restores;
        pages_restored;
        remirrors;
      };
    p_dirty;
  }

let get_plan_state c =
  let spec = get_str c in
  let st_rng = get_i64 c in
  let st_seq = get_int c in
  let st_injected = get_int_array c in
  let st_recovered = get_int_array c in
  (spec, { Nyx_resilience.Plan.st_rng; st_seq; st_injected; st_recovered })

let get_profile_state c =
  let ps_counts = get_int_array c in
  let ps_virt = get_int_array c in
  { Nyx_obs.Profile.ps_counts; ps_virt }

let get_peer_state c =
  let pd_actions = get_int c in
  let pd_fired = get_int_array c in
  let pd_desyncs = get_int c in
  let pd_restarts = get_int c in
  let pd_quarantines = get_int c in
  let pd_backoff_ns = get_int c in
  {
    Nyx_peer.Peer_driver.pd_actions;
    pd_fired;
    pd_desyncs;
    pd_restarts;
    pd_quarantines;
    pd_backoff_ns;
  }

let get_weight c =
  let n = get_str c in
  let bits = get_i64 c in
  (n, bits)

let get_mut_state c =
  let ms_name = get_str c in
  let ms_attempts = get_int c in
  let ms_rejected = get_int c in
  let ms_accepts = get_int c in
  let ms_credit = get_i64 c in
  { Nyx_spec.Mutation_engine.ms_name; ms_attempts; ms_rejected; ms_accepts; ms_credit }

let decode data =
  let c = cursor ~magic data in
  let c_policy = get_str c in
  let c_budget_ns = get_int c in
  let c_max_execs = get_int c in
  let c_seed = get_int c in
  let c_asan = get_bool c in
  let c_stop_on_solve = get_bool c in
  let c_trim = get_bool c in
  let c_sample_interval_ns = get_int c in
  let c_target = get_str c in
  let c_clock_ns = get_int c in
  let c_execs = get_int c in
  let c_last_sample = get_int c in
  let c_solved_ns = get_opt get_int c in
  let c_sched_rng = get_i64 c in
  let c_mut_rng = get_i64 c in
  let c_policy_state = get_policy_state c in
  let c_corpus = get_list get_corpus_entry c in
  let c_virgin = get_bytes c in
  let c_timeline = get_list get_sample c in
  let c_crashes = get_list get_crash c in
  let c_engine = get_engine c in
  let c_dict = get_list get_bytes c in
  let c_max_ops = get_int c in
  let c_exec_timeline = get_list get_sample c in
  let c_mut_engine = get_str c in
  let c_mut_weights = get_list get_weight c in
  let c_mut_state = get_list get_mut_state c in
  let c_faults = get_opt get_plan_state c in
  let c_profile = get_opt get_profile_state c in
  let c_peer = get_opt get_peer_state c in
  expect_end c;
  {
    c_policy;
    c_budget_ns;
    c_max_execs;
    c_seed;
    c_asan;
    c_stop_on_solve;
    c_trim;
    c_sample_interval_ns;
    c_target;
    c_clock_ns;
    c_execs;
    c_last_sample;
    c_solved_ns;
    c_sched_rng;
    c_mut_rng;
    c_policy_state;
    c_corpus;
    c_virgin;
    c_timeline;
    c_crashes;
    c_engine;
    c_dict;
    c_max_ops;
    c_exec_timeline;
    c_mut_engine;
    c_mut_weights;
    c_mut_state;
    c_faults;
    c_profile;
    c_peer;
  }

(* ------------------------------------------------------------------ *)
(* Files.                                                              *)

let save path t = Nyx_resilience.Atomic_io.write_file path (encode t)

let load path =
  match Nyx_resilience.Atomic_io.read_file path with
  | Error _ as e -> e
  | Ok data -> (
    match decode data with
    | t -> Ok t
    | exception Corrupt m -> Error (Printf.sprintf "%s: %s" path m))
