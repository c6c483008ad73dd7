(* Coverage pins: a digest of what a target does on fixed inputs, so a
   change that moves instrumentation sites can show it left every edge
   id, protocol state and crash where it was. *)
open Nyx_core

let status_tag = function
  | Report.Pass -> "pass"
  | Report.Hang -> "hang"
  | Report.Crash { kind; detail } -> Printf.sprintf "crash %s %S" kind detail

(* Each seed, then [mutants] havoc mutants of it drawn from one fixed
   generator, all through [Executor.run_full]; per run the status, the
   state code and the coverage signature. *)
let digest ?(mutants = 8) exec seeds =
  let rng = Nyx_sim.Rng.create 1 in
  let out = Buffer.create 4096 in
  let run p =
    let r = Executor.run_full exec p in
    Printf.bprintf out "%s %d:" (status_tag r.Report.status) r.Report.state_code;
    Array.iter
      (fun (cell, n) -> Printf.bprintf out " %d=%d" cell n)
      (Nyx_targets.Coverage.signature (Executor.coverage exec));
    Buffer.add_char out '\n'
  in
  List.iter
    (fun seed ->
      run seed;
      for _ = 1 to mutants do
        run (Nyx_spec.Mutator.mutate rng seed)
      done)
    seeds;
  Digest.to_hex (Digest.string (Buffer.contents out))

let of_entry (entry : Nyx_targets.Registry.entry) =
  let ns = Campaign.net_spec () in
  let exec = Executor.create ~net_spec:ns entry.Nyx_targets.Registry.target in
  digest exec (Nyx_targets.Registry.seed_programs entry ns)
