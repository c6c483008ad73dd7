open Nyx_vm

let name = "exim"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let addr_null = Ctx.edge_pair (site "addr:null")
  let addr_at = Ctx.edge_pair (site "addr:at")
  let addr_local_empty = Ctx.edge_pair (site "addr:local-empty")
  let addr_domain_empty = Ctx.edge_pair (site "addr:domain-empty")
  let addr_bare = Ctx.edge (site "addr:bare")
  let addr_unbracketed = Ctx.edge (site "addr:unbracketed")
  let data_header = Ctx.edge (site "data:header")
  let hdr_subject = Ctx.edge (site "hdr:subject")
  let hdr_from = Ctx.edge (site "hdr:from")
  let hdr_to = Ctx.edge (site "hdr:to")
  let hdr_received = Ctx.edge (site "hdr:received")
  let hdr_other = Ctx.edge (site "hdr:other")
  let hdr_long = Ctx.edge_pair (site "hdr:long")
  let hdr_late_colon = Ctx.edge_pair (site "hdr:late-colon")
  let data_late_header = Ctx.edge (site "data:late-header")
  let data_body = Ctx.edge_pair (site "data:body")
  let data_blank = Ctx.edge (site "data:blank")
  let connect = Ctx.edge (site "connect")
  let packet = Ctx.edge (site "packet")
  let in_data = Ctx.edge_pair (site "in-data")
  let data_end = Ctx.edge (site "data:end")
  let helo_noarg = Ctx.edge_pair (site "helo:noarg")
  let mail_order = Ctx.edge_pair (site "mail:order")
  let mail_syntax = Ctx.edge (site "mail:syntax")
  let rcpt_order = Ctx.edge_pair (site "rcpt:order")
  let rcpt_syntax = Ctx.edge (site "rcpt:syntax")
  let rcpt_many = Ctx.edge_pair (site "rcpt:many")
  let data_order = Ctx.edge_pair (site "data:order")
  let cmd_vrfy = Ctx.edge (site "cmd:vrfy")
  let cmd_expn = Ctx.edge (site "cmd:expn")
  let cmd_auth = Ctx.edge (site "cmd:auth")
  let auth_plain = Ctx.edge_pair (site "auth:plain")
  let cmd_starttls = Ctx.edge (site "cmd:starttls")
  let cmd_unknown = Ctx.edge (site "cmd:unknown")
end

(* Connection state offsets: the classic SMTP state machine. *)
let f_phase = 0 (* 0 start, 1 greeted, 2 mail, 3 rcpt, 4 data *)
let f_rcpts = 4
let f_data_lines = 8

let rewrite_buffer_len = 72
let fold_point = 24

let parse_address ctx arg =
  (* MAIL FROM:<a@b> / RCPT TO:<a@b> *)
  match (String.index_opt arg '<', String.index_opt arg '>') with
  | Some i, Some j when j > i ->
    let addr = String.sub arg (i + 1) (j - i - 1) in
    if Ctx.branch ctx Site.addr_null (addr = "") then Some ""
    else if Ctx.branch ctx Site.addr_at (String.contains addr '@') then begin
      let at = String.index addr '@' in
      ignore (Ctx.branch ctx Site.addr_local_empty (at = 0));
      ignore (Ctx.branch ctx Site.addr_domain_empty (at = String.length addr - 1));
      Some addr
    end
    else begin
      Ctx.hit ctx Site.addr_bare;
      Some addr
    end
  | _ ->
    Ctx.hit ctx Site.addr_unbracketed;
    None

(* Inside DATA: header rewriting. A header line longer than the rewrite
   buffer whose ':' lies beyond the fold point overflows the continuation
   buffer — the planted bug. *)
let process_data_line ctx ~conn line =
  let heap = ctx.Ctx.heap in
  Guest_heap.set_i32 heap (conn + f_data_lines)
    (Guest_heap.get_i32 heap (conn + f_data_lines) + 1);
  match String.index_opt line ':' with
  | Some colon when Guest_heap.get_i32 heap (conn + f_data_lines) <= 32 ->
    Ctx.hit ctx Site.data_header;
    (match Proto_util.upper (String.sub line 0 (min colon 16)) with
    | "SUBJECT" -> Ctx.hit ctx Site.hdr_subject
    | "FROM" -> Ctx.hit ctx Site.hdr_from
    | "TO" -> Ctx.hit ctx Site.hdr_to
    | "RECEIVED" -> Ctx.hit ctx Site.hdr_received
    | _ -> Ctx.hit ctx Site.hdr_other);
    if Ctx.branch ctx Site.hdr_long (String.length line > rewrite_buffer_len) then
      if Ctx.branch ctx Site.hdr_late_colon (colon > fold_point) then
        Ctx.crash ctx ~kind:"buffer-overflow"
          (Printf.sprintf
             "header rewrite: %d-byte line with colon at %d overflows continuation buffer"
             (String.length line) colon)
  | Some _ -> Ctx.hit ctx Site.data_late_header
  | None ->
    if Ctx.branch ctx Site.data_body (String.length line > 0) then ()
    else Ctx.hit ctx Site.data_blank

let on_connect ctx ~g:_ ~conn:_ ~reply =
  Ctx.hit ctx Site.connect;
  reply (Bytes.of_string "220 mail.example.com ESMTP Exim\r\n")

let on_packet ctx ~g:_ ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  let r code text =
    Ctx.set_state ctx code;
    reply (Bytes.of_string (Printf.sprintf "%d %s\r\n" code text))
  in
  Ctx.hit ctx Site.packet;
  let phase = Guest_heap.get_i32 heap (conn + f_phase) in
  if Ctx.branch ctx Site.in_data (phase = 4) then begin
    (* DATA mode: lines until "." terminator. *)
    let text = Bytes.to_string data in
    let lines = String.split_on_char '\n' text |> List.map String.trim in
    let finished = ref false in
    List.iter
      (fun line ->
        if !finished then ()
        else if line = "." then begin
          finished := true;
          Guest_heap.set_i32 heap (conn + f_phase) 1;
          Ctx.hit ctx Site.data_end;
          r 250 "message accepted"
        end
        else process_data_line ctx ~conn line)
      lines
  end
  else begin
    let line = Proto_util.line_of data in
    let cmd, arg =
      match String.index_opt line ' ' with
      | None -> (Proto_util.upper line, "")
      | Some i ->
        ( Proto_util.upper (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    in
    match cmd with
    | "EHLO" | "HELO" ->
      Ctx.hit ctx (Ctx.edge (site ("cmd:" ^ cmd)));
      if Ctx.branch ctx Site.helo_noarg (arg = "") then r 501 "domain required"
      else begin
        Guest_heap.set_i32 heap (conn + f_phase) 1;
        if cmd = "EHLO" then r 250 "mail.example.com Hello [extensions: SIZE PIPELINING]"
        else r 250 "mail.example.com Hello"
      end
    | "MAIL" ->
      if Ctx.branch ctx Site.mail_order (phase < 1) then r 503 "EHLO first"
      else if not (Proto_util.starts_with_ci ~prefix:"FROM:" arg) then begin
        Ctx.hit ctx Site.mail_syntax;
        r 501 "syntax: MAIL FROM:<address>"
      end
      else begin
        match parse_address ctx arg with
        | Some _ ->
          Guest_heap.set_i32 heap (conn + f_phase) 2;
          Guest_heap.set_i32 heap (conn + f_rcpts) 0;
          r 250 "sender ok"
        | None -> r 501 "bad sender address"
      end
    | "RCPT" ->
      if Ctx.branch ctx Site.rcpt_order (phase < 2) then r 503 "MAIL first"
      else if not (Proto_util.starts_with_ci ~prefix:"TO:" arg) then begin
        Ctx.hit ctx Site.rcpt_syntax;
        r 501 "syntax: RCPT TO:<address>"
      end
      else begin
        match parse_address ctx arg with
        | Some _ ->
          let n = Guest_heap.get_i32 heap (conn + f_rcpts) + 1 in
          Guest_heap.set_i32 heap (conn + f_rcpts) n;
          if Ctx.branch ctx Site.rcpt_many (n > 10) then r 452 "too many recipients"
          else begin
            Guest_heap.set_i32 heap (conn + f_phase) 3;
            r 250 "recipient ok"
          end
        | None -> r 501 "bad recipient address"
      end
    | "DATA" ->
      if Ctx.branch ctx Site.data_order (phase < 3) then r 503 "RCPT first"
      else begin
        Guest_heap.set_i32 heap (conn + f_phase) 4;
        Guest_heap.set_i32 heap (conn + f_data_lines) 0;
        r 354 "end data with <CRLF>.<CRLF>"
      end
    | "RSET" ->
      Guest_heap.set_i32 heap (conn + f_phase) (min phase 1);
      r 250 "reset ok"
    | "NOOP" -> r 250 "ok"
    | "QUIT" -> r 221 "closing connection"
    | "VRFY" ->
      Ctx.hit ctx Site.cmd_vrfy;
      r 252 "cannot verify"
    | "EXPN" ->
      Ctx.hit ctx Site.cmd_expn;
      r 550 "access denied"
    | "AUTH" ->
      Ctx.hit ctx Site.cmd_auth;
      if Ctx.branch ctx Site.auth_plain (Proto_util.starts_with_ci ~prefix:"PLAIN" arg)
      then r 235 "authentication successful"
      else r 504 "mechanism not supported"
    | "STARTTLS" ->
      Ctx.hit ctx Site.cmd_starttls;
      r 454 "TLS not available"
    | "" -> r 500 "empty command"
    | _ ->
      Ctx.hit ctx Site.cmd_unknown;
      r 500 "command unrecognized"
  end

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 25;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Crlf;
        startup_ns = 200_000_000;
        work_ns = 550_000;
        desock_compat = false;
        forking = false;
        max_recv = 2048;
        dict = [ "EHLO"; "HELO"; "MAIL FROM:<"; "RCPT TO:<"; "DATA"; "Subject:"; "AUTH PLAIN"; "STARTTLS"; ":" ];
      };
    hooks =
      { Target.default_hooks with conn_state_size = 12; on_connect; on_packet };
  }

let seeds =
  [
    List.map Bytes.of_string
      [
        "EHLO client.example.com\r\n";
        "MAIL FROM:<alice@example.com>\r\n";
        "RCPT TO:<bob@example.com>\r\n";
        "DATA\r\n";
        "Subject: test message about the quarterly report\r\n\
         From: alice@example.com\r\n\
         \r\n\
         hello bob\r\n\
         .\r\n";
      ];
  ]
