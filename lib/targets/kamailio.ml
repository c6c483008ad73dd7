let name = "kamailio"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let uri_scheme = Ctx.edge_pair (site "uri:scheme")
  let uri_user = Ctx.edge (site "uri:user")
  let uri_user_empty = Ctx.edge_pair (site "uri:user-empty")
  let uri_nouser = Ctx.edge (site "uri:nouser")
  let uri_params = Ctx.edge (site "uri:params")
  let uri_port_privileged = Ctx.edge_pair (site "uri:port-privileged")
  let uri_port_bad = Ctx.edge (site "uri:port-bad")
  let uri_sips = Ctx.edge_pair (site "uri:sips")
  let uri_tel = Ctx.edge_pair (site "uri:tel")
  let hdr_malformed = Ctx.edge (site "hdr:malformed")
  let hdr_via = Ctx.edge (site "hdr:via")
  let via_udp = Ctx.edge_pair (site "via:udp")
  let via_tcp = Ctx.edge_pair (site "via:tcp")
  let via_other = Ctx.edge (site "via:other")
  let via_branch = Ctx.edge_pair (site "via:branch")
  let via_nobranch = Ctx.edge (site "via:nobranch")
  let hdr_from = Ctx.edge (site "hdr:from")
  let from_unclosed = Ctx.edge (site "from:unclosed")
  let from_tag = Ctx.edge_pair (site "from:tag")
  let hdr_to = Ctx.edge (site "hdr:to")
  let hdr_cseq = Ctx.edge (site "hdr:cseq")
  let cseq_num_ok = Ctx.edge (site "cseq:num-ok")
  let cseq_num_bad = Ctx.edge (site "cseq:num-bad")
  let cseq_method_ok = Ctx.edge (site "cseq:method-ok")
  let cseq_method_bad = Ctx.edge (site "cseq:method-bad")
  let cseq_arity = Ctx.edge (site "cseq:arity")
  let hdr_callid = Ctx.edge (site "hdr:callid")
  let callid_host = Ctx.edge_pair (site "callid:host")
  let hdr_contact = Ctx.edge (site "hdr:contact")
  let contact_star = Ctx.edge_pair (site "contact:star")
  let maxfwd_zero = Ctx.edge (site "maxfwd:zero")
  let maxfwd_ok = Ctx.edge (site "maxfwd:ok")
  let maxfwd_bad = Ctx.edge (site "maxfwd:bad")
  let clen_ok = Ctx.edge (site "clen:ok")
  let clen_bad = Ctx.edge (site "clen:bad")
  let ctype_sdp = Ctx.edge_pair (site "ctype:sdp")
  let ctype_other = Ctx.edge (site "ctype:other")
  let hdr_expires = Ctx.edge (site "hdr:expires")
  let hdr_route = Ctx.edge (site "hdr:route")
  let hdr_auth = Ctx.edge (site "hdr:auth")
  let auth_digest = Ctx.edge_pair (site "auth:digest")
  let hdr_ua = Ctx.edge (site "hdr:ua")
  let hdr_ext = Ctx.edge (site "hdr:ext")
  let hdr_event = Ctx.edge (site "hdr:event")
  let hdr_unknown = Ctx.edge (site "hdr:unknown")
  let sdp_v = Ctx.edge (site "sdp:v")
  let sdp_o = Ctx.edge (site "sdp:o")
  let sdp_c = Ctx.edge (site "sdp:c")
  let sdp_m = Ctx.edge (site "sdp:m")
  let sdp_audio = Ctx.edge_pair (site "sdp:audio")
  let sdp_a = Ctx.edge (site "sdp:a")
  let sdp_other = Ctx.edge (site "sdp:other")
  let sdp_junk = Ctx.edge (site "sdp:junk")
  let packet = Ctx.edge (site "packet")
  let empty = Ctx.edge (site "empty")
  let version = Ctx.edge_pair (site "version")
  let version_bad = Ctx.edge (site "version:bad")
  let has_body = Ctx.edge_pair (site "has-body")
  let response = Ctx.edge_pair (site "response")
  let got_response = Ctx.edge (site "got-response")
  let method_unknown = Ctx.edge (site "method:unknown")
  let reqline_malformed = Ctx.edge (site "reqline:malformed")
end

let methods =
  [ "INVITE"; "REGISTER"; "OPTIONS"; "BYE"; "ACK"; "CANCEL"; "SUBSCRIBE";
    "NOTIFY"; "MESSAGE"; "REFER"; "INFO"; "UPDATE"; "PRACK"; "PUBLISH" ]

let split_lines s =
  String.split_on_char '\n' s |> List.map (fun l -> String.trim l)

(* sip:user@host:port;params *)
let parse_uri ctx uri =
  if Ctx.branch ctx Site.uri_scheme (Proto_util.starts_with_ci ~prefix:"sip:" uri)
  then begin
    let rest = String.sub uri 4 (String.length uri - 4) in
    (match String.index_opt rest '@' with
    | Some i ->
      Ctx.hit ctx Site.uri_user;
      if Ctx.branch ctx Site.uri_user_empty (i = 0) then ()
    | None -> Ctx.hit ctx Site.uri_nouser);
    (match String.index_opt rest ';' with
    | Some _ -> Ctx.hit ctx Site.uri_params
    | None -> ());
    (match String.rindex_opt rest ':' with
    | Some i when i > 0 -> (
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match Proto_util.int_of_string_bounded ~max:65535 port with
      | Some p -> ignore (Ctx.branch ctx Site.uri_port_privileged (p < 1024))
      | None -> Ctx.hit ctx Site.uri_port_bad)
    | _ -> ());
    true
  end
  else if Ctx.branch ctx Site.uri_sips (Proto_util.starts_with_ci ~prefix:"sips:" uri)
  then true
  else if Ctx.branch ctx Site.uri_tel (Proto_util.starts_with_ci ~prefix:"tel:" uri)
  then true
  else false

let parse_header ctx line =
  match String.index_opt line ':' with
  | None -> Ctx.hit ctx Site.hdr_malformed
  | Some i ->
    let hname = Proto_util.upper (String.trim (String.sub line 0 i)) in
    let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    (match hname with
    | "VIA" | "V" ->
      Ctx.hit ctx Site.hdr_via;
      if Ctx.branch ctx Site.via_udp (Proto_util.starts_with_ci ~prefix:"SIP/2.0/UDP" value)
      then ()
      else if Ctx.branch ctx Site.via_tcp
                (Proto_util.starts_with_ci ~prefix:"SIP/2.0/TCP" value)
      then ()
      else Ctx.hit ctx Site.via_other;
      (match String.index_opt value ';' with
      | Some _ ->
        if Ctx.branch ctx Site.via_branch
             (Proto_util.header_value ~name:"Via" ("Via:" ^ value) <> None
             && String.length value > 12)
        then ()
      | None -> Ctx.hit ctx Site.via_nobranch)
    | "FROM" | "F" ->
      Ctx.hit ctx Site.hdr_from;
      (match String.index_opt value '<' with
      | Some i -> (
        match String.index_opt value '>' with
        | Some j when j > i ->
          ignore (parse_uri ctx (String.sub value (i + 1) (j - i - 1)))
        | _ -> Ctx.hit ctx Site.from_unclosed)
      | None -> ignore (parse_uri ctx value));
      if Ctx.branch ctx Site.from_tag (Proto_util.starts_with_ci ~prefix:"" value
                                           && String.length value > 0
                                           && String.length value < 2048) then ()
    | "TO" | "T" -> Ctx.hit ctx Site.hdr_to
    | "CSEQ" -> (
      Ctx.hit ctx Site.hdr_cseq;
      match Proto_util.tokens value with
      | [ num; meth ] -> (
        (match Proto_util.int_of_string_bounded ~max:1_000_000 num with
        | Some _ -> Ctx.hit ctx Site.cseq_num_ok
        | None -> Ctx.hit ctx Site.cseq_num_bad);
        if List.mem (Proto_util.upper meth) methods then Ctx.hit ctx Site.cseq_method_ok
        else Ctx.hit ctx Site.cseq_method_bad)
      | _ -> Ctx.hit ctx Site.cseq_arity)
    | "CALL-ID" | "I" ->
      Ctx.hit ctx Site.hdr_callid;
      ignore (Ctx.branch ctx Site.callid_host (String.contains value '@'))
    | "CONTACT" | "M" ->
      Ctx.hit ctx Site.hdr_contact;
      ignore (Ctx.branch ctx Site.contact_star (value = "*"))
    | "MAX-FORWARDS" -> (
      match Proto_util.int_of_string_bounded ~max:255 value with
      | Some 0 -> Ctx.hit ctx Site.maxfwd_zero
      | Some _ -> Ctx.hit ctx Site.maxfwd_ok
      | None -> Ctx.hit ctx Site.maxfwd_bad)
    | "CONTENT-LENGTH" | "L" -> (
      match Proto_util.int_of_string_bounded ~max:65536 value with
      | Some _ -> Ctx.hit ctx Site.clen_ok
      | None -> Ctx.hit ctx Site.clen_bad)
    | "CONTENT-TYPE" | "C" ->
      if Ctx.branch ctx Site.ctype_sdp (Proto_util.starts_with_ci ~prefix:"application/sdp" value)
      then ()
      else Ctx.hit ctx Site.ctype_other
    | "EXPIRES" -> Ctx.hit ctx Site.hdr_expires
    | "ROUTE" | "RECORD-ROUTE" -> Ctx.hit ctx Site.hdr_route
    | "AUTHORIZATION" | "PROXY-AUTHORIZATION" ->
      Ctx.hit ctx Site.hdr_auth;
      ignore (Ctx.branch ctx Site.auth_digest (Proto_util.starts_with_ci ~prefix:"Digest" value))
    | "USER-AGENT" -> Ctx.hit ctx Site.hdr_ua
    | "SUPPORTED" | "REQUIRE" -> Ctx.hit ctx Site.hdr_ext
    | "EVENT" | "O" -> Ctx.hit ctx Site.hdr_event
    | _ -> Ctx.hit ctx Site.hdr_unknown)

let parse_sdp ctx body =
  List.iter
    (fun line ->
      if String.length line >= 2 && line.[1] = '=' then
        match line.[0] with
        | 'v' -> Ctx.hit ctx Site.sdp_v
        | 'o' -> Ctx.hit ctx Site.sdp_o
        | 'c' -> Ctx.hit ctx Site.sdp_c
        | 'm' ->
          Ctx.hit ctx Site.sdp_m;
          if Ctx.branch ctx Site.sdp_audio
               (Proto_util.starts_with_ci ~prefix:"m=audio" line)
          then ()
        | 'a' -> Ctx.hit ctx Site.sdp_a
        | _ -> Ctx.hit ctx Site.sdp_other
      else if line <> "" then Ctx.hit ctx Site.sdp_junk)
    (split_lines body)

let on_packet ctx ~g:_ ~conn:_ ~reply data =
  Ctx.hit ctx Site.packet;
  let text = Bytes.to_string data in
  let head, body =
    match Proto_util.find_blank_line text with
    | Some i -> (String.sub text 0 i, String.sub text i (String.length text - i))
    | None -> (text, "")
  in
  match split_lines head with
  | [] -> Ctx.hit ctx Site.empty
  | request_line :: headers ->
    (match Proto_util.tokens request_line with
    | [ meth; uri; version ] ->
      let meth = Proto_util.upper meth in
      if List.mem meth methods then begin
        Ctx.hit ctx (Ctx.edge (site ("method:" ^ meth)));
        ignore (parse_uri ctx uri);
        if Ctx.branch ctx Site.version (version = "SIP/2.0") then ()
        else Ctx.hit ctx Site.version_bad;
        List.iter (fun l -> if l <> "" then parse_header ctx l) headers;
        if Ctx.branch ctx Site.has_body (String.length body > 4) then
          parse_sdp ctx body;
        let code, text_resp =
          match meth with
          | "INVITE" -> (180, "Ringing")
          | "REGISTER" -> (200, "OK")
          | "OPTIONS" -> (200, "OK")
          | "SUBSCRIBE" -> (202, "Accepted")
          | _ -> (200, "OK")
        in
        Ctx.set_state ctx code;
        reply (Bytes.of_string (Printf.sprintf "SIP/2.0 %d %s\r\n\r\n" code text_resp))
      end
      else if Ctx.branch ctx Site.response (Proto_util.starts_with_ci ~prefix:"SIP/2.0" meth)
      then Ctx.hit ctx Site.got_response
      else begin
        Ctx.hit ctx Site.method_unknown;
        Ctx.set_state ctx 501;
        reply (Bytes.of_string "SIP/2.0 501 Not Implemented\r\n\r\n")
      end
    | _ ->
      Ctx.hit ctx Site.reqline_malformed;
      Ctx.set_state ctx 400;
      reply (Bytes.of_string "SIP/2.0 400 Bad Request\r\n\r\n"))

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 5060;
        proto = Nyx_netemu.Net.Udp;
        dissector = Nyx_pcap.Dissector.Datagram;
        startup_ns = 150_000_000;
        work_ns = 1_600_000;
        desock_compat = false;
        forking = false;
        max_recv = 4096;
        dict = [ "INVITE"; "REGISTER"; "OPTIONS"; "SUBSCRIBE"; "SIP/2.0"; "Via: SIP/2.0/UDP "; "From: <sip:"; "To: <sip:"; "CSeq:"; "Contact:"; "Max-Forwards:"; "Content-Length:"; "application/sdp"; "m=audio" ];
      };
    hooks = { Target.default_hooks with on_packet };
  }

let invite =
  "INVITE sip:bob@example.com SIP/2.0\r\n\
   Via: SIP/2.0/UDP client.example.com;branch=z9hG4bK776asdhds\r\n\
   Max-Forwards: 70\r\n\
   To: <sip:bob@example.com>\r\n\
   From: <sip:alice@example.com>;tag=1928301774\r\n\
   Call-ID: a84b4c76e66710@client.example.com\r\n\
   CSeq: 314159 INVITE\r\n\
   Contact: <sip:alice@client.example.com>\r\n\
   Content-Type: application/sdp\r\n\
   Content-Length: 55\r\n\
   \r\n\
   v=0\r\no=alice 2890844526 2890844526 IN IP4 client\r\nm=audio 49170 RTP/AVP 0\r\n"

let register =
  "REGISTER sip:example.com SIP/2.0\r\n\
   Via: SIP/2.0/UDP client.example.com;branch=z9hG4bKnashds7\r\n\
   To: <sip:alice@example.com>\r\n\
   From: <sip:alice@example.com>;tag=456248\r\n\
   Call-ID: 843817637684230@client\r\n\
   CSeq: 1826 REGISTER\r\n\
   Contact: <sip:alice@client.example.com>\r\n\
   Expires: 7200\r\n\r\n"

let seeds =
  [
    [ Bytes.of_string register; Bytes.of_string invite ];
    [ Bytes.of_string "OPTIONS sip:example.com SIP/2.0\r\nCSeq: 1 OPTIONS\r\n\r\n" ];
  ]
