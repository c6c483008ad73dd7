open Nyx_vm

type special_args = {
  ctx : Ctx.t;
  g : int;
  conn : int;
  cmd : string;
  arg : string;
  reply : bytes -> unit;
}

type config = {
  name : string;
  banner : string;
  require_auth : bool;
  commands : string list;
  special : (special_args -> bool) option;
}

module Field = struct
  let auth = 0
  let ty = 4
  let passive = 8
  let rnfr_pending = 12
  let rest_offset = 16
  let cwd_depth = 20
  let g_connections = 0
  let g_stored_count = 4
  let g_stored_hash = 8
end

let conn_state_size = 24
let global_state_size = 16

let standard_commands =
  [
    "USER"; "PASS"; "QUIT"; "SYST"; "TYPE"; "PWD"; "CWD"; "CDUP"; "MKD"; "RMD";
    "DELE"; "LIST"; "NLST"; "PASV"; "PORT"; "RETR"; "STOR"; "APPE"; "RNFR";
    "RNTO"; "SITE"; "NOOP"; "FEAT"; "HELP"; "ABOR"; "REST"; "SIZE"; "MDTM"; "STAT";
  ]

let sample_session =
  [
    "USER anonymous\r\n"; "PASS guest@example.com\r\n"; "SYST\r\n"; "PWD\r\n";
    "TYPE I\r\n"; "PASV\r\n"; "LIST\r\n"; "QUIT\r\n";
  ]

let reply_str reply code text =
  reply (Bytes.of_string (Printf.sprintf "%d %s\r\n" code text))

(* Commands allowed before authentication completes. *)
let pre_auth_ok = function
  | "USER" | "PASS" | "QUIT" | "FEAT" | "SYST" | "NOOP" | "HELP" -> true
  | _ -> false

(* [List.mem] without polymorphic compare: this runs on every packet. *)
let rec supported cmd = function
  | [] -> false
  | c :: rest -> String.equal c cmd || supported cmd rest

let hooks cfg =
  let site s = cfg.name ^ "/" ^ s in
  (* Instrumentation sites, hashed into edge ids once per configuration
     (each FTP target builds its hooks once). *)
  let module Site = struct
    let connect = Ctx.edge (site "connect")
    let user_empty = Ctx.edge_pair (site "USER:empty")
    let user_anon = Ctx.edge_pair (site "USER:anon")
    let pass_order = Ctx.edge_pair (site "PASS:order")
    let type_i = Ctx.edge_pair (site "TYPE:I")
    let type_a = Ctx.edge_pair (site "TYPE:A")
    let pwd = Ctx.edge (site "PWD")
    let cwd_up = Ctx.edge_pair (site "CWD:up")
    let cwd_root = Ctx.edge_pair (site "CWD:root")
    let cwd_abs = Ctx.edge_pair (site "CWD:abs")
    let cwd_deep = Ctx.edge_pair (site "CWD:deep")
    let cdup_root = Ctx.edge_pair (site "CDUP:root")
    let port_ok = Ctx.edge (site "PORT:ok")
    let port_bad = Ctx.edge (site "PORT:bad")
    let retr_noarg = Ctx.edge_pair (site "RETR:noarg")
    let retr_exists = Ctx.edge_pair (site "RETR:exists")
    let stor_noarg = Ctx.edge_pair (site "STOR:noarg")
    let rnto_order = Ctx.edge_pair (site "RNTO:order")
    let rest_ok = Ctx.edge (site "REST:ok")
    let rest_bad = Ctx.edge (site "REST:bad")
    let unknown = Ctx.edge (site "unknown")
    let packet = Ctx.edge (site "packet")
    let line_empty = Ctx.edge_pair (site "line:empty")
    let line_long = Ctx.edge_pair (site "line:long")
    let auth_gate = Ctx.edge_pair (site "auth:gate")
    let unsupported = Ctx.edge (site "unsupported")
    let disconnect = Ctx.edge (site "disconnect")

    (* Per-verb families: [(noarg, dotdot)] for MKD/RMD/DELE, [noarg] for
       SIZE/MDTM/STAT, [nodata] for LIST/NLST. *)
    let noarg verb = Ctx.edge_pair (site (verb ^ ":noarg"))
    let path_checks verb = (noarg verb, Ctx.edge_pair (site (verb ^ ":dotdot")))
    let mkd = path_checks "MKD"
    let rmd = path_checks "RMD"
    let dele = path_checks "DELE"
    let size_noarg = noarg "SIZE"
    let mdtm_noarg = noarg "MDTM"
    let stat_noarg = noarg "STAT"
    let list_nodata = Ctx.edge_pair (site "LIST:nodata")
    let nlst_nodata = Ctx.edge_pair (site "NLST:nodata")
  end in
  let get ctx addr off = Guest_heap.get_i32 ctx.Ctx.heap (addr + off) in
  let set ctx addr off v = Guest_heap.set_i32 ctx.Ctx.heap (addr + off) v in
  let on_init _ctx ~g:_ = () in
  let on_connect ctx ~g ~conn:_ ~reply =
    Ctx.hit ctx Site.connect;
    set ctx g Field.g_connections (get ctx g Field.g_connections + 1);
    reply (Bytes.of_string (cfg.banner ^ "\r\n"))
  in
  let handle_command ctx ~g ~conn ~reply cmd arg =
    let r code text =
      Ctx.set_state ctx code;
      reply_str reply code text
    in
    match cmd with
    | "USER" ->
      if Ctx.branch ctx Site.user_empty (arg = "") then r 501 "missing user name"
      else begin
        set ctx conn Field.auth 1;
        if Ctx.branch ctx Site.user_anon (Proto_util.upper arg = "ANONYMOUS") then
          r 331 "anonymous login ok, send email as password"
        else r 331 "password required"
      end
    | "PASS" ->
      if Ctx.branch ctx Site.pass_order (get ctx conn Field.auth <> 1) then
        r 503 "login with USER first"
      else begin
        set ctx conn Field.auth 2;
        r 230 "login successful"
      end
    | "QUIT" -> r 221 "goodbye"
    | "SYST" -> r 215 "UNIX Type: L8"
    | "NOOP" -> r 200 "ok"
    | "HELP" -> r 214 "commands recognized"
    | "FEAT" -> r 211 "features: MDTM REST SIZE"
    | "TYPE" ->
      if Ctx.branch ctx Site.type_i (Proto_util.upper arg = "I") then begin
        set ctx conn Field.ty 1;
        r 200 "type set to I"
      end
      else if Ctx.branch ctx Site.type_a (Proto_util.upper arg = "A") then begin
        set ctx conn Field.ty 0;
        r 200 "type set to A"
      end
      else r 504 "unsupported type"
    | "PWD" ->
      Ctx.hit ctx Site.pwd;
      r 257 (Printf.sprintf "\"/depth%d\" is current directory" (get ctx conn Field.cwd_depth))
    | "CWD" ->
      if Ctx.branch ctx Site.cwd_up (arg = "..") then begin
        let d = get ctx conn Field.cwd_depth in
        if Ctx.branch ctx Site.cwd_root (d = 0) then r 550 "already at root"
        else begin
          set ctx conn Field.cwd_depth (d - 1);
          r 250 "directory changed"
        end
      end
      else if Ctx.branch ctx Site.cwd_abs (String.length arg > 0 && arg.[0] = '/') then begin
        set ctx conn Field.cwd_depth 0;
        r 250 "directory changed to root"
      end
      else if Ctx.branch ctx Site.cwd_deep (get ctx conn Field.cwd_depth >= 7) then
        r 550 "directory nesting too deep"
      else begin
        set ctx conn Field.cwd_depth (get ctx conn Field.cwd_depth + 1);
        r 250 "directory changed"
      end
    | "CDUP" ->
      let d = get ctx conn Field.cwd_depth in
      if Ctx.branch ctx Site.cdup_root (d = 0) then r 550 "already at root"
      else begin
        set ctx conn Field.cwd_depth (d - 1);
        r 200 "ok"
      end
    | "MKD" | "RMD" | "DELE" ->
      let noarg, dotdot =
        match cmd with "MKD" -> Site.mkd | "RMD" -> Site.rmd | _ -> Site.dele
      in
      if Ctx.branch ctx noarg (arg = "") then r 501 "missing path"
      else if Ctx.branch ctx dotdot (String.length arg >= 2 && String.sub arg 0 2 = "..")
      then r 550 "permission denied"
      else r 250 (cmd ^ " ok")
    | "PASV" ->
      set ctx conn Field.passive 1;
      r 227 "entering passive mode (127,0,0,1,200,10)"
    | "PORT" -> (
      match String.split_on_char ',' arg with
      | [ _; _; _; _; _; _ ] ->
        Ctx.hit ctx Site.port_ok;
        set ctx conn Field.passive 0;
        r 200 "port command successful"
      | _ ->
        Ctx.hit ctx Site.port_bad;
        r 501 "illegal port command")
    | "LIST" | "NLST" ->
      let nodata = match cmd with "LIST" -> Site.list_nodata | _ -> Site.nlst_nodata in
      if Ctx.branch ctx nodata (get ctx conn Field.passive = 0) then
        r 425 "use PASV first"
      else r 226 "transfer complete"
    | "RETR" ->
      if Ctx.branch ctx Site.retr_noarg (arg = "") then r 501 "missing file"
      else if Ctx.branch ctx Site.retr_exists
                (Hashtbl.hash arg = get ctx g Field.g_stored_hash
                 && get ctx g Field.g_stored_count > 0)
      then r 226 "transfer complete"
      else r 550 "no such file"
    | "STOR" | "APPE" ->
      if Ctx.branch ctx Site.stor_noarg (arg = "") then r 501 "missing file"
      else begin
        set ctx g Field.g_stored_count (get ctx g Field.g_stored_count + 1);
        set ctx g Field.g_stored_hash (Hashtbl.hash arg);
        r 226 "transfer complete"
      end
    | "RNFR" ->
      set ctx conn Field.rnfr_pending 1;
      r 350 "ready for RNTO"
    | "RNTO" ->
      if Ctx.branch ctx Site.rnto_order (get ctx conn Field.rnfr_pending = 0) then
        r 503 "RNFR required first"
      else begin
        set ctx conn Field.rnfr_pending 0;
        r 250 "rename successful"
      end
    | "REST" -> (
      match Proto_util.int_of_string_bounded ~max:1_000_000 arg with
      | Some off ->
        Ctx.hit ctx Site.rest_ok;
        set ctx conn Field.rest_offset off;
        r 350 "restarting at offset"
      | None ->
        Ctx.hit ctx Site.rest_bad;
        r 501 "bad offset")
    | "SIZE" | "MDTM" | "STAT" ->
      let noarg =
        match cmd with "SIZE" -> Site.size_noarg | "MDTM" -> Site.mdtm_noarg | _ -> Site.stat_noarg
      in
      if Ctx.branch ctx noarg (arg = "") then r 501 "missing argument"
      else r 213 "0"
    | "ABOR" -> r 226 "abort successful"
    | "SITE" -> r 500 "SITE not understood"
    | _ ->
      Ctx.hit ctx Site.unknown;
      r 500 "command not understood"
  in
  let on_packet ctx ~g ~conn ~reply data =
    let line = Proto_util.line_of data in
    let cmd, arg =
      match String.index_opt line ' ' with
      | None -> (Proto_util.upper line, "")
      | Some i ->
        ( Proto_util.upper (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    in
    Ctx.hit ctx Site.packet;
    if Ctx.branch ctx Site.line_empty (String.length line = 0) then
      reply_str reply 500 "empty command"
    else if Ctx.branch ctx Site.line_long (String.length line > 512) then
      reply_str reply 500 "line too long"
    else begin
      let handled =
        match cfg.special with
        | Some f -> f { ctx; g; conn; cmd; arg; reply }
        | None -> false
      in
      if not handled then begin
        if
          Ctx.branch ctx Site.auth_gate
            (cfg.require_auth && (not (pre_auth_ok cmd))
            && Guest_heap.get_i32 ctx.Ctx.heap (conn + Field.auth) <> 2)
        then reply_str reply 530 "please login with USER and PASS"
        else if not (supported cmd cfg.commands) then begin
          Ctx.hit ctx Site.unsupported;
          reply_str reply 502 "command not implemented"
        end
        else handle_command ctx ~g ~conn ~reply cmd arg
      end
    end
  in
  let on_disconnect ctx ~g:_ ~conn:_ = Ctx.hit ctx Site.disconnect in
  {
    Target.global_state_size;
    conn_state_size;
    on_init;
    on_connect;
    on_packet;
    on_disconnect;
  }
