type spec = (Fault.site * float) list

(* The spec grammar, shared with --peer-faults: comma-separated
   [site:rate] items over the sites [names] lists (a site's full name is
   accepted too), [all] for every one of them, rates floats in [0,1].
   Every error names the offending item verbatim and lists the valid
   names, so a bad --faults / --peer-faults / NYX_FAULTS spec is
   diagnosable without reading the source. *)
let parse_sites ~what ~names s =
  let valid = String.concat "|" (List.map fst names) ^ "|all" in
  let sites = List.map snd names in
  let site_of name =
    match List.assoc_opt name names with
    | Some _ as site -> site
    | None -> (
      match Fault.site_of_name name with
      | Some site when List.mem site sites -> Some site
      | _ -> None)
  in
  let spec = String.map (function ' ' -> '-' | c -> c) what ^ " spec" in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest -> (
      match String.index_opt item ':' with
      | None ->
        Error
          (Printf.sprintf "invalid %s item %S (want site:rate with site one of %s)" spec item
             valid)
      | Some i -> (
        let name = String.trim (String.sub item 0 i) in
        let rate = String.sub item (i + 1) (String.length item - i - 1) in
        match float_of_string_opt (String.trim rate) with
        | Some r when r >= 0.0 && r <= 1.0 ->
          if name = "all" then go (List.rev_append (List.map (fun s -> (s, r)) sites) acc) rest
          else (
            match site_of name with
            | Some site -> go ((site, r) :: acc) rest
            | None ->
              Error
                (Printf.sprintf "unknown %s site %S in item %S (want one of %s)" what name item
                   valid))
        | _ ->
          Error
            (Printf.sprintf "invalid %s rate %S in item %S (want a float in [0,1])" what rate
               item)))
  in
  match String.trim s with
  | "" -> Error (Printf.sprintf "empty %s (want site:rate,... with site one of %s)" spec valid)
  | _ -> go [] (String.split_on_char ',' s)

let parse_spec =
  parse_sites ~what:"fault" ~names:(List.map (fun s -> (Fault.site_name s, s)) Fault.all_sites)

(* Canonical rendering: per-site rates in site order, later spec items
   having overridden earlier ones. Checkpoints store this string so a
   resumed run rebuilds the exact same plan. *)
let spec_to_string sp =
  let rates = Array.make Fault.num_sites 0.0 in
  List.iter (fun (site, r) -> rates.(Fault.site_index site) <- r) sp;
  String.concat ","
    (List.filter_map
       (fun site ->
         let r = rates.(Fault.site_index site) in
         if r > 0.0 then Some (Printf.sprintf "%s:%.17g" (Fault.site_name site) r)
         else None)
       Fault.all_sites)

type t = {
  rates : float array; (* per site, Fault.site_index order *)
  rng : Nyx_sim.Rng.t;
  mutable seq : int;
  injected : int array;
  recovered : int array;
  mutable suppress : int; (* >0 while a recovery runs: no nested faults *)
  spec_str : string;
}

let create sp rng =
  let rates = Array.make Fault.num_sites 0.0 in
  List.iter (fun (site, r) -> rates.(Fault.site_index site) <- r) sp;
  {
    rates;
    rng;
    seq = 0;
    injected = Array.make Fault.num_sites 0;
    recovered = Array.make Fault.num_sites 0;
    suppress = 0;
    spec_str = spec_to_string sp;
  }

let spec_string t = t.spec_str

let fire t site ~vns =
  if t.suppress > 0 then None
  else begin
    let i = Fault.site_index site in
    let rate = t.rates.(i) in
    (* Zero-rate sites draw nothing, so a spec naming only some sites has
       the same draw sequence whatever the other sites would have done. *)
    if rate <= 0.0 then None
    else if Nyx_sim.Rng.chance t.rng rate then begin
      let f = { Fault.site; seq = t.seq; site_seq = t.injected.(i); vns } in
      t.seq <- t.seq + 1;
      t.injected.(i) <- t.injected.(i) + 1;
      Some f
    end
    else None
  end

let suppressed t f =
  t.suppress <- t.suppress + 1;
  Fun.protect ~finally:(fun () -> t.suppress <- t.suppress - 1) f

let record_recovered (t : t) (fault : Fault.t) =
  let i = Fault.site_index fault.Fault.site in
  t.recovered.(i) <- t.recovered.(i) + 1

type counts = { injected : int; recovered : int }

let totals (t : t) =
  {
    injected = Array.fold_left ( + ) 0 t.injected;
    recovered = Array.fold_left ( + ) 0 t.recovered;
  }

let by_site (t : t) =
  List.map
    (fun site ->
      let i = Fault.site_index site in
      (site, { injected = t.injected.(i); recovered = t.recovered.(i) }))
    Fault.all_sites

(* Checkpoint support: a plan is its rng state, ordinal and counters. *)

type state = {
  st_rng : int64;
  st_seq : int;
  st_injected : int array;
  st_recovered : int array;
}

let state (t : t) =
  {
    st_rng = Nyx_sim.Rng.state t.rng;
    st_seq = t.seq;
    st_injected = Array.copy t.injected;
    st_recovered = Array.copy t.recovered;
  }

let restore_state (t : t) (s : state) =
  if
    Array.length s.st_injected <> Fault.num_sites
    || Array.length s.st_recovered <> Fault.num_sites
  then invalid_arg "Plan.restore_state: counter arity mismatch";
  Nyx_sim.Rng.set_state t.rng s.st_rng;
  t.seq <- s.st_seq;
  Array.blit s.st_injected 0 t.injected 0 Fault.num_sites;
  Array.blit s.st_recovered 0 t.recovered 0 Fault.num_sites

let add_state b s =
  Nyx_sim.Wire.add_i64 b s.st_rng;
  Nyx_sim.Wire.add_int b s.st_seq;
  Nyx_sim.Wire.add_int_array b s.st_injected;
  Nyx_sim.Wire.add_int_array b s.st_recovered

let get_state c =
  let st_rng = Nyx_sim.Wire.get_i64 c in
  let st_seq = Nyx_sim.Wire.get_int c in
  let st_injected = Nyx_sim.Wire.get_int_array c in
  let st_recovered = Nyx_sim.Wire.get_int_array c in
  { st_rng; st_seq; st_injected; st_recovered }
