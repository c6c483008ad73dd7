open Nyx_resilience
open Nyx_netemu

(* Session state: captured/restored with the snapshots (see
   [register_aux]), so an incremental snapshot taken mid-handshake
   resumes the peer mid-handshake and every reset rewinds it. *)
type sess = {
  mutable s_stage : int;
  mutable s_flow : int option;
  mutable s_adopted : int; (* client targets: outbound flows claimed *)
  mutable s_streak : int; (* consecutive desyncs *)
  mutable s_quar : bool;
}

type t = {
  script : Peer_script.t;
  clock : Nyx_sim.Clock.t;
  net : Net.t;
  runtime : Nyx_targets.Target.runtime;
  target : Nyx_targets.Target.t;
  profile : Nyx_obs.Profile.t option;
  sess : sess;
  mutable plan : Plan.t option;
  (* Cumulative campaign-level counters (not snapshot state). *)
  mutable n_actions : int;
  fired : int array; (* per peer site, Fault.peer_sites order *)
  mutable n_desyncs : int;
  mutable n_restarts : int;
  mutable n_quarantines : int;
  mutable backoff_ns : int;
}

let num_peer_sites = List.length Fault.peer_sites

let peer_site_index site =
  let rec go i = function
    | [] -> invalid_arg "Peer_driver: not a peer site"
    | s :: tl -> if s = site then i else go (i + 1) tl
  in
  go 0 Fault.peer_sites

let create ?profile ~clock ~net ~runtime ~target script =
  {
    script;
    clock;
    net;
    runtime;
    target;
    profile;
    sess = { s_stage = 0; s_flow = None; s_adopted = 0; s_streak = 0; s_quar = false };
    plan = None;
    n_actions = 0;
    fired = Array.make num_peer_sites 0;
    n_desyncs = 0;
    n_restarts = 0;
    n_quarantines = 0;
    backoff_ns = 0;
  }

let arm t plan = t.plan <- Some plan
let script t = t.script

let register_aux t aux =
  Nyx_snapshot.Aux_state.register aux
    {
      Nyx_snapshot.Aux_state.name = "peer";
      save =
        (fun () ->
          let s = t.sess in
          let stage = s.s_stage and flow = s.s_flow and adopted = s.s_adopted
          and streak = s.s_streak and quar = s.s_quar in
          ( Marshal.to_bytes (stage, flow, adopted, streak, quar) [],
            fun () ->
              s.s_stage <- stage;
              s.s_flow <- flow;
              s.s_adopted <- adopted;
              s.s_streak <- streak;
              s.s_quar <- quar ));
    }

(* ------------------------------------------------------------------ *)

let prof t f =
  match t.profile with
  | None -> f ()
  | Some p -> Nyx_obs.Profile.span p Nyx_obs.Profile.Peer t.clock f

let is_udp t = t.target.Nyx_targets.Target.info.Nyx_targets.Target.proto = Net.Udp

let is_client t =
  t.target.Nyx_targets.Target.info.Nyx_targets.Target.role = Nyx_targets.Target.Client

let port t = t.target.Nyx_targets.Target.info.Nyx_targets.Target.port

let drain t =
  match t.sess.s_flow with
  | None -> Bytes.empty
  | Some fl -> (
    try Bytes.concat Bytes.empty (Net.responses t.net fl)
    with Invalid_argument _ -> Bytes.empty)

let close_flow t =
  (match t.sess.s_flow with
  | Some fl when not (is_udp t) -> (
    try
      Net.close_peer t.net fl;
      Nyx_targets.Target.pump t.runtime
    with Invalid_argument _ -> ())
  | _ -> ());
  t.sess.s_flow <- None

(* Open (or adopt) the peer's connection and validate the banner, if the
   script expects one. Returns false when the session could not start
   cleanly — the caller decides whether that counts as a desync. *)
let open_session t =
  t.sess.s_stage <- 0;
  if is_client t then begin
    (* The target dialed out during boot: the peer is the server end and
       adopts the next unclaimed outbound flow. *)
    match List.nth_opt (Net.outbound_flows t.net) t.sess.s_adopted with
    | Some fl ->
      t.sess.s_adopted <- t.sess.s_adopted + 1;
      t.sess.s_flow <- Some fl;
      true
    | None ->
      t.sess.s_flow <- None;
      false
  end
  else if is_udp t then begin
    (* Datagram flows materialize on the first send. *)
    t.sess.s_flow <- None;
    true
  end
  else begin
    match Net.connect_peer t.net ~port:(port t) with
    | Some fl ->
      Nyx_targets.Target.pump t.runtime;
      t.sess.s_flow <- Some fl;
      (match t.script.Peer_script.p_banner with
      | None -> true
      | Some ok -> ok (drain t))
    | None ->
      t.sess.s_flow <- None;
      false
  end

(* Supervised recovery: charge a capped exponential backoff to virtual
   time, then either restart the session or — after too many consecutive
   desyncs — quarantine it so the rest of the program completes with
   partial results. Never raises: a wedged peer degrades, it does not
   abort the campaign. *)
let note_desync t ~what ~reconnect =
  t.n_desyncs <- t.n_desyncs + 1;
  t.sess.s_streak <- t.sess.s_streak + 1;
  let delay =
    Backoff.delay_ns ~base_ns:1_000_000 ~cap_ns:64_000_000
      ~attempt:(min (t.sess.s_streak - 1) 30)
  in
  Nyx_sim.Clock.advance t.clock delay;
  t.backoff_ns <- t.backoff_ns + delay;
  if Nyx_obs.Trace.on () then
    Nyx_obs.Trace.instant
      ~vns:(Nyx_sim.Clock.now_ns t.clock)
      "peer-desync"
      [
        ("action", Nyx_obs.Trace.Str what);
        ("streak", Nyx_obs.Trace.Int t.sess.s_streak);
        ("backoff_ns", Nyx_obs.Trace.Int delay);
      ];
  if t.sess.s_streak >= t.script.Peer_script.p_quarantine_after then begin
    t.n_quarantines <- t.n_quarantines + 1;
    t.sess.s_quar <- true;
    close_flow t
  end
  else if reconnect then begin
    t.n_restarts <- t.n_restarts + 1;
    if is_client t then
      (* A client target dialed out once; there is no second outbound
         flow to adopt, so the restart just rewinds the script stage. *)
      t.sess.s_stage <- 0
    else begin
      close_flow t;
      ignore (open_session t)
    end
  end

let send_wire t wire =
  if is_udp t then begin
    match Net.udp_send_peer t.net ~port:(port t) ?flow:t.sess.s_flow wire with
    | Some fl ->
      t.sess.s_flow <- Some fl;
      Nyx_targets.Target.pump t.runtime
    | None -> ()
  end
  else
    match t.sess.s_flow with
    | None -> ()
    | Some fl -> (
      (* EPIPE on a server-closed connection loses the message, like a
         real socket; target crashes raised while pumping propagate. *)
      match Net.send_peer t.net fl wire with
      | () -> Nyx_targets.Target.pump t.runtime
      | exception Invalid_argument _ -> ())

let handle_connect t =
  t.sess.s_streak <- 0;
  t.sess.s_quar <- false;
  if not (open_session t) then note_desync t ~what:"connect" ~reconnect:false;
  [ 1 ]

let encode_with_fault t msg site =
  match (t.plan, site) with
  | Some plan, Some s -> (
    match Plan.fire plan s ~vns:(Nyx_sim.Clock.now_ns t.clock) with
    | Some f ->
      let wires, detail = Peer_fault.apply f msg in
      (* By construction every peer fault is recovered: the supervision
         above restores the session, never the campaign. Count it now so
         an abort elsewhere can never leave it dangling. *)
      Plan.record_recovered plan f;
      t.fired.(peer_site_index s) <- t.fired.(peer_site_index s) + 1;
      if Nyx_obs.Trace.on () then
        Nyx_obs.Trace.instant
          ~vns:(Nyx_sim.Clock.now_ns t.clock)
          "peer-fault"
          [
            ("site", Nyx_obs.Trace.Str (Fault.site_name s));
            ("seq", Nyx_obs.Trace.Int f.Fault.seq);
            ("message", Nyx_obs.Trace.Str msg.Peer_fault.m_name);
            ("detail", Nyx_obs.Trace.Str detail);
          ];
      wires
    | None -> [ msg.Peer_fault.m_bytes ])
  | _ -> [ msg.Peer_fault.m_bytes ]

let handle_packet t data =
  let payload = if Array.length data > 0 then data.(0) else Bytes.empty in
  if t.sess.s_quar then () (* quarantined: the peer stays silent *)
  else
    match Peer_script.decode_payload t.script payload with
    | None -> ()
    | Some (idx, site) ->
      let action = t.script.Peer_script.p_actions.(idx) in
      t.n_actions <- t.n_actions + 1;
      let stage = t.sess.s_stage in
      List.iteri
        (fun i m ->
          let wires =
            if i = 0 then encode_with_fault t m site else [ m.Peer_fault.m_bytes ]
          in
          List.iter (send_wire t) wires)
        (action.Peer_script.a_messages ~stage);
      let resp = drain t in
      if action.Peer_script.a_expect ~stage resp then begin
        t.sess.s_stage <- action.Peer_script.a_next ~stage;
        t.sess.s_streak <- 0
      end
      else note_desync t ~what:action.Peer_script.a_name ~reconnect:true

let handle_close t =
  close_flow t;
  t.sess.s_stage <- 0

let handler t ~send:_ (nt : Nyx_spec.Spec.node_ty) _inputs data =
  match nt.Nyx_spec.Spec.nt_name with
  | "connect" -> Some (prof t (fun () -> handle_connect t))
  | "packet" ->
    prof t (fun () -> handle_packet t data);
    Some []
  | "close" ->
    prof t (fun () -> handle_close t);
    Some []
  | _ -> None

(* ------------------------------------------------------------------ *)

let actions t = t.n_actions
let desyncs t = t.n_desyncs
let restarts t = t.n_restarts
let quarantines t = t.n_quarantines
let backoff_ns t = t.backoff_ns

(* Checkpoint section: the cumulative counters, fired counts in peer
   sites order. *)

let save t =
  Nyx_sim.Wire.(
    to_bytes (fun b ->
        add_int b t.n_actions;
        Array.iter (add_int b) t.fired;
        List.iter (add_int b) [ t.n_desyncs; t.n_restarts; t.n_quarantines; t.backoff_ns ]))

let load t data =
  let v = Nyx_sim.Wire.(of_bytes (fun c -> Array.init (num_peer_sites + 5) (fun _ -> get_int c))) data in
  t.n_actions <- v.(0);
  Array.blit v 1 t.fired 0 num_peer_sites;
  t.n_desyncs <- v.(num_peer_sites + 1);
  t.n_restarts <- v.(num_peer_sites + 2);
  t.n_quarantines <- v.(num_peer_sites + 3);
  t.backoff_ns <- v.(num_peer_sites + 4)

let fired_by_site t =
  List.mapi (fun i s -> (Fault.site_name s, t.fired.(i))) Fault.peer_sites
