open Nyx_vm

let name = "live555"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let transport_rtp_avp = Ctx.edge_pair (site "transport:rtp-avp")
  let transport_unicast = Ctx.edge_pair (site "transport:unicast")
  let transport_interleaved = Ctx.edge_pair (site "transport:interleaved")
  let transport_other = Ctx.edge (site "transport:other")
  let packet = Ctx.edge (site "packet")
  let empty = Ctx.edge (site "empty")
  let version = Ctx.edge_pair (site "version")
  let url_rtsp = Ctx.edge_pair (site "url:rtsp")
  let verb_options = Ctx.edge (site "verb:options")
  let verb_describe = Ctx.edge (site "verb:describe")
  let describe_sdp = Ctx.edge (site "describe:sdp")
  let describe_other_accept = Ctx.edge (site "describe:other-accept")
  let describe_no_accept = Ctx.edge (site "describe:no-accept")
  let verb_setup = Ctx.edge (site "verb:setup")
  let setup_undescribed = Ctx.edge_pair (site "setup:undescribed")
  let setup_no_transport = Ctx.edge (site "setup:no-transport")
  let verb_play = Ctx.edge (site "verb:play")
  let play_nosession = Ctx.edge_pair (site "play:nosession")
  let verb_pause = Ctx.edge (site "verb:pause")
  let pause_notplaying = Ctx.edge_pair (site "pause:notplaying")
  let verb_teardown = Ctx.edge (site "verb:teardown")
  let verb_parameter = Ctx.edge (site "verb:parameter")
  let verb_unknown = Ctx.edge (site "verb:unknown")
  let reqline_malformed = Ctx.edge (site "reqline:malformed")
end

(* Connection state offsets. *)
let f_described = 0
let f_session = 4
let f_playing = 8

let header_lines text =
  match Proto_util.find_blank_line text with
  | Some i -> String.sub text 0 i
  | None -> text

let get_header text hname =
  String.split_on_char '\n' (header_lines text)
  |> List.map String.trim
  |> List.find_map (fun l -> Proto_util.header_value ~name:hname l)

let parse_transport ctx value =
  (* Returns the parsed transport spec, or None when no key=value pair is
     present — the condition the SETUP handler fails to check. *)
  let parts = String.split_on_char ';' value in
  List.iter
    (fun p ->
      let p = String.trim p in
      if Ctx.branch ctx Site.transport_rtp_avp (Proto_util.starts_with_ci ~prefix:"RTP/AVP" p)
      then ()
      else if Ctx.branch ctx Site.transport_unicast (Proto_util.upper p = "UNICAST")
      then ()
      else if Ctx.branch ctx Site.transport_interleaved
                (Proto_util.starts_with_ci ~prefix:"interleaved" p)
      then ()
      else Ctx.hit ctx Site.transport_other)
    parts;
  List.find_opt (fun p -> String.contains p '=') parts

let on_packet ctx ~g:_ ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  let text = Bytes.to_string data in
  let cseq = Option.value ~default:"0" (get_header text "CSeq") in
  let r code reason extra =
    Ctx.set_state ctx code;
    reply
      (Bytes.of_string
         (Printf.sprintf "RTSP/1.0 %d %s\r\nCSeq: %s\r\n%s\r\n" code reason cseq extra))
  in
  Ctx.hit ctx Site.packet;
  match String.split_on_char '\n' text |> List.map String.trim with
  | [] | [ "" ] -> Ctx.hit ctx Site.empty
  | request_line :: _ -> (
    match Proto_util.tokens request_line with
    | [ verb; url; version ] -> (
      let verb = Proto_util.upper verb in
      ignore (Ctx.branch ctx Site.version (version = "RTSP/1.0"));
      ignore (Ctx.branch ctx Site.url_rtsp (Proto_util.starts_with_ci ~prefix:"rtsp://" url));
      match verb with
      | "OPTIONS" ->
        Ctx.hit ctx Site.verb_options;
        r 200 "OK" "Public: OPTIONS, DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN\r\n"
      | "DESCRIBE" ->
        Ctx.hit ctx Site.verb_describe;
        (match get_header text "Accept" with
        | Some accept when Proto_util.starts_with_ci ~prefix:"application/sdp" accept ->
          Ctx.hit ctx Site.describe_sdp
        | Some _ -> Ctx.hit ctx Site.describe_other_accept
        | None -> Ctx.hit ctx Site.describe_no_accept);
        Guest_heap.set_i32 heap (conn + f_described) 1;
        r 200 "OK" "Content-Type: application/sdp\r\nContent-Length: 0\r\n"
      | "SETUP" ->
        Ctx.hit ctx Site.verb_setup;
        if Ctx.branch ctx Site.setup_undescribed
             (Guest_heap.get_i32 heap (conn + f_described) = 0)
        then r 455 "Method Not Valid in This State" ""
        else begin
          match get_header text "Transport" with
          | None ->
            Ctx.hit ctx Site.setup_no_transport;
            r 461 "Unsupported Transport" ""
          | Some value -> (
            match parse_transport ctx value with
            | None ->
              (* The unchecked null: session setup dereferences the parsed
                 transport spec. *)
              Ctx.crash ctx ~kind:"null-deref"
                "SETUP with Transport header lacking key=value dereferences null spec"
            | Some _ ->
              Guest_heap.set_i32 heap (conn + f_session) 7;
              r 200 "OK" "Session: 00000007\r\nTransport: RTP/AVP;unicast\r\n")
        end
      | "PLAY" ->
        Ctx.hit ctx Site.verb_play;
        if Ctx.branch ctx Site.play_nosession
             (Guest_heap.get_i32 heap (conn + f_session) = 0)
        then r 454 "Session Not Found" ""
        else begin
          Guest_heap.set_i32 heap (conn + f_playing) 1;
          r 200 "OK" "Range: npt=0.000-\r\n"
        end
      | "PAUSE" ->
        Ctx.hit ctx Site.verb_pause;
        if Ctx.branch ctx Site.pause_notplaying
             (Guest_heap.get_i32 heap (conn + f_playing) = 0)
        then r 455 "Method Not Valid in This State" ""
        else r 200 "OK" ""
      | "TEARDOWN" ->
        Ctx.hit ctx Site.verb_teardown;
        Guest_heap.set_i32 heap (conn + f_session) 0;
        Guest_heap.set_i32 heap (conn + f_playing) 0;
        r 200 "OK" ""
      | "GET_PARAMETER" | "SET_PARAMETER" ->
        Ctx.hit ctx Site.verb_parameter;
        r 200 "OK" ""
      | _ ->
        Ctx.hit ctx Site.verb_unknown;
        r 501 "Not Implemented" "")
    | _ ->
      Ctx.hit ctx Site.reqline_malformed;
      r 400 "Bad Request" "")

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 8554;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Raw;
        startup_ns = 60_000_000;
        work_ns = 3_800_000;
        desock_compat = false;
        forking = false;
        max_recv = 4096;
        dict = [ "DESCRIBE"; "SETUP"; "PLAY"; "PAUSE"; "TEARDOWN"; "RTSP/1.0"; "CSeq:"; "Transport:"; "RTP/AVP"; "unicast"; "application/sdp"; "Session:" ];
      };
    hooks = { Target.default_hooks with conn_state_size = 12; on_packet };
  }

let seeds =
  [
    List.map Bytes.of_string
      [
        "OPTIONS rtsp://server/stream RTSP/1.0\r\nCSeq: 1\r\n\r\n";
        "DESCRIBE rtsp://server/stream RTSP/1.0\r\nCSeq: 2\r\nAccept: application/sdp\r\n\r\n";
        "SETUP rtsp://server/stream/track1 RTSP/1.0\r\nCSeq: 3\r\n\
         Transport: RTP/AVP;unicast;client_port=5000-5001\r\n\r\n";
        "PLAY rtsp://server/stream RTSP/1.0\r\nCSeq: 4\r\nSession: 00000007\r\n\r\n";
      ];
  ]
