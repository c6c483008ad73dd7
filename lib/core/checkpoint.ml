(* Crash-safe campaign checkpoints.

   A checkpoint captures the deterministic state a campaign needs to
   continue exactly where it left off. The campaign's own state is typed
   here: configuration, virtual clock, RNG states, corpus, cumulative
   coverage, crash log, dictionary and (when armed) the fault plan. Each
   component — placement policy, snapshot engine, mutation engine, phase
   profile, peer driver — writes and reads its own section; this module
   stores the bytes and never looks inside. Guest memory, disk overlays
   and device state are deliberately absent — they are reconstructed by
   re-booting the target (deterministic) plus the engine's section; page
   contents are always overwritten before the resumed run can read them.

   Format: "NYXCKP2" magic, the typed fields, then the sections in a
   fixed order, each length-prefixed, all in Nyx_sim.Wire's checked
   big-endian framing. Files are written via Atomic_io (tmp + rename), so
   a crash mid-write never corrupts the previous checkpoint. *)

open Nyx_sim.Wire

let magic = "NYXCKP2"

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
  c_mut_engine : string;  (* Engines.name form *)
  c_mut_weights : (string * int64) list;  (* weight overrides; float bits *)
  (* progress *)
  c_clock_ns : int;
  c_execs : int;
  c_last_sample : int;
  c_solved_ns : int option;
  (* randomness *)
  c_sched_rng : int64;
  c_mut_rng : int64;
  (* discovered state *)
  c_corpus : corpus_entry list;  (* oldest first: ids re-assign in order *)
  c_virgin : bytes;  (* cumulative coverage map *)
  c_timeline : (int * int64) list;  (* oldest first; values as float bits *)
  c_exec_timeline : (int * int64) list;  (* oldest first; values as float bits *)
  c_crashes : crash list;  (* newest first, as the campaign stores them *)
  (* derived-at-setup state that must not be re-derived from seeds *)
  c_dict : bytes list;
  c_max_ops : int;
  (* resilience *)
  c_faults : (string * Nyx_resilience.Plan.state) option;
  (* component sections, opaque here *)
  c_policy_state : bytes;
  c_engine : bytes;
  c_mut_state : bytes;
  c_profile : bytes option;
  c_peer : bytes option;
}

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

let add_weight b (n, bits) =
  add_str b n;
  add_i64 b bits

let add_faults b (spec, s) =
  add_str b spec;
  Nyx_resilience.Plan.add_state b s

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
  add_str b t.c_mut_engine;
  add_list add_weight b t.c_mut_weights;
  add_int b t.c_clock_ns;
  add_int b t.c_execs;
  add_int b t.c_last_sample;
  add_opt add_int b t.c_solved_ns;
  add_i64 b t.c_sched_rng;
  add_i64 b t.c_mut_rng;
  add_list add_corpus_entry b t.c_corpus;
  add_bytes b t.c_virgin;
  add_list add_sample b t.c_timeline;
  add_list add_sample b t.c_exec_timeline;
  add_list add_crash b t.c_crashes;
  add_list add_bytes b t.c_dict;
  add_int b t.c_max_ops;
  add_opt add_faults b t.c_faults;
  add_bytes b t.c_policy_state;
  add_bytes b t.c_engine;
  add_bytes b t.c_mut_state;
  add_opt add_bytes b t.c_profile;
  add_opt add_bytes b t.c_peer;
  Buffer.to_bytes b

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
  (t, get_i64 c)

let get_weight c =
  let n = get_str c in
  (n, get_i64 c)

let get_faults c =
  let spec = get_str c in
  (spec, Nyx_resilience.Plan.get_state c)

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
  let c_mut_engine = get_str c in
  let c_mut_weights = get_list get_weight c in
  let c_clock_ns = get_int c in
  let c_execs = get_int c in
  let c_last_sample = get_int c in
  let c_solved_ns = get_opt get_int c in
  let c_sched_rng = get_i64 c in
  let c_mut_rng = get_i64 c in
  let c_corpus = get_list get_corpus_entry c in
  let c_virgin = get_bytes c in
  let c_timeline = get_list get_sample c in
  let c_exec_timeline = get_list get_sample c in
  let c_crashes = get_list get_crash c in
  let c_dict = get_list get_bytes c in
  let c_max_ops = get_int c in
  let c_faults = get_opt get_faults c in
  let c_policy_state = get_bytes c in
  let c_engine = get_bytes c in
  let c_mut_state = get_bytes c in
  let c_profile = get_opt get_bytes c in
  let c_peer = get_opt get_bytes c in
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
    c_mut_engine;
    c_mut_weights;
    c_clock_ns;
    c_execs;
    c_last_sample;
    c_solved_ns;
    c_sched_rng;
    c_mut_rng;
    c_corpus;
    c_virgin;
    c_timeline;
    c_exec_timeline;
    c_crashes;
    c_dict;
    c_max_ops;
    c_faults;
    c_policy_state;
    c_engine;
    c_mut_state;
    c_profile;
    c_peer;
  }

let save path t = Nyx_resilience.Atomic_io.write_file path (encode t)

let load path =
  match Nyx_resilience.Atomic_io.read_file path with
  | Error _ as e -> e
  | Ok data -> (
    match decode data with
    | t -> Ok t
    | exception Corrupt m -> Error (Printf.sprintf "%s: %s" path m))
