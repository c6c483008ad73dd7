type action = {
  a_name : string;
  a_messages : Peer_fault.message list;
  a_next : stage:int -> int;
  a_expect : bytes -> bool;
}

type t = {
  p_target : string;
  p_actions : action array;
  p_banner : (bytes -> bool) option;
  p_quarantine_after : int;
  p_seed_actions : int list list;
}

let field ?(be = true) name kind pos len =
  { Peer_fault.f_name = name; f_kind = kind; f_pos = pos; f_len = len; f_big_endian = be }

let msg ?(fields = []) ?reframe name bytes =
  { Peer_fault.m_name = name; m_bytes = bytes; m_fields = fields; m_reframe = reframe }

(* ------------------------------------------------------------------ *)
(* FTP peers (lightftp, proftpd): a scripted client driving the RFC 959
   state machine. Stages: 0 fresh, 1 USER sent, 2 logged in, 3 passive
   data channel requested. Expectations match on reply codes. *)

(* [String.trim]'s blanks; a line never holds its own '\n'. *)
let is_blank = function ' ' | '\t' | '\r' | '\012' | '\n' -> true | _ -> false

let rec starts_with_code resp s = function
  | [] -> false
  | code :: rest ->
    (String.length code = 3
    && Bytes.get resp s = code.[0]
    && Bytes.get resp (s + 1) = code.[1]
    && Bytes.get resp (s + 2) = code.[2])
    || starts_with_code resp s rest

let rec line_end resp i =
  if i >= Bytes.length resp || Bytes.get resp i = '\n' then i else line_end resp (i + 1)

(* The line of [resp] that starts at [s], blanks trimmed, or a later one
   starts with one of [codes]. *)
let rec code_line codes resp s =
  let e = line_end resp s in
  let s' = ref s and e' = ref e in
  while !s' < !e' && is_blank (Bytes.get resp !s') do
    incr s'
  done;
  while !e' > !s' && is_blank (Bytes.get resp (!e' - 1)) do
    decr e'
  done;
  (!e' - !s' >= 3 && starts_with_code resp !s' codes)
  || (e < Bytes.length resp && code_line codes resp (e + 1))

(* Scans the reply in place: no line, trimmed copy or prefix is built. *)
let expect_code codes resp = code_line codes resp 0

let ftp_cmd ?(fields = []) ~expect ~next name line =
  {
    a_name = name;
    a_messages = [ msg ~fields name (Bytes.of_string (line ^ "\r\n")) ];
    a_next = next;
    a_expect = expect_code expect;
  }

let same ~stage = stage

let ftp_actions ~extended =
  let base =
    [
      ftp_cmd "user" "USER fuzz"
        ~fields:[ field "arg" Peer_fault.Field 4 5 ]
        ~expect:[ "331" ] ~next:(fun ~stage:_ -> 1);
      ftp_cmd "pass" "PASS fuzz"
        ~fields:[ field "arg" Peer_fault.Field 4 5 ]
        ~expect:[ "230" ] ~next:(fun ~stage:_ -> 2);
      ftp_cmd "syst" "SYST" ~expect:[ "215" ] ~next:same;
      ftp_cmd "type-i" "TYPE I"
        ~fields:[ field "arg" Peer_fault.Field 4 2 ]
        ~expect:[ "200" ] ~next:same;
      ftp_cmd "pasv" "PASV" ~expect:[ "227" ] ~next:(fun ~stage:_ -> 3);
      ftp_cmd "port" "PORT 127,0,0,1,200,10"
        ~fields:[ field "arg" Peer_fault.Field 4 17 ]
        ~expect:[ "200" ]
        ~next:(fun ~stage -> if stage = 3 then 2 else stage);
      ftp_cmd "list" "LIST" ~expect:[ "226" ] ~next:same;
      ftp_cmd "stor" "STOR upload.txt"
        ~fields:[ field "arg" Peer_fault.Field 4 11 ]
        ~expect:[ "226" ] ~next:same;
      ftp_cmd "retr" "RETR upload.txt"
        ~fields:[ field "arg" Peer_fault.Field 4 11 ]
        ~expect:[ "226" ] ~next:same;
      ftp_cmd "pwd" "PWD" ~expect:[ "257" ] ~next:same;
      ftp_cmd "cwd" "CWD sub"
        ~fields:[ field "arg" Peer_fault.Field 3 4 ]
        ~expect:[ "250" ] ~next:same;
      ftp_cmd "noop" "NOOP" ~expect:[ "200" ] ~next:same;
      ftp_cmd "feat" "FEAT" ~expect:[ "211" ] ~next:same;
      ftp_cmd "abor" "ABOR" ~expect:[ "226" ] ~next:same;
      ftp_cmd "quit" "QUIT" ~expect:[ "221" ] ~next:same;
    ]
  in
  let extra =
    if not extended then []
    else
      [
        ftp_cmd "site-chmod" "SITE CHMOD 644 upload.txt"
          ~fields:
            [
              field "mode" Peer_fault.Field 10 4;
              field "name" Peer_fault.Field 14 11;
            ]
          ~expect:[ "200" ] ~next:same;
        ftp_cmd "rnfr" "RNFR upload.txt"
          ~fields:[ field "arg" Peer_fault.Field 4 11 ]
          ~expect:[ "350" ] ~next:same;
        ftp_cmd "rnto" "RNTO renamed.txt"
          ~fields:[ field "arg" Peer_fault.Field 4 12 ]
          ~expect:[ "250" ] ~next:same;
        ftp_cmd "rest" "REST 128"
          ~fields:[ field "arg" Peer_fault.Field 4 4 ]
          ~expect:[ "350" ] ~next:same;
        ftp_cmd "mkd" "MKD adir"
          ~fields:[ field "arg" Peer_fault.Field 3 5 ]
          ~expect:[ "250" ] ~next:same;
        ftp_cmd "cdup" "CDUP" ~expect:[ "200" ] ~next:same;
      ]
  in
  Array.of_list (base @ extra)

let ftp_script ~extended target =
  {
    p_target = target;
    p_actions = ftp_actions ~extended;
    p_banner = Some (expect_code [ "220" ]);
    p_quarantine_after = 3;
    p_seed_actions =
      (if extended then
         [
           [ 0; 1; 7; 15 ];
           [ 0; 1; 16; 17; 18 ];
           [ 0; 1; 2; 4; 6; 19; 10; 20 ];
         ]
       else [ [ 0; 1; 2; 3; 4; 6 ]; [ 0; 1; 7; 8 ]; [ 0; 1; 9; 10; 4; 6; 5; 11 ] ]);
  }

(* ------------------------------------------------------------------ *)
(* tinydtls peer: a scripted DTLS client. Stages: 0 fresh, 1 hello sent
   (HelloVerifyRequest expected), 2 cookie echoed (handshake running),
   3 key exchange done. *)

let dtls_record content_type payload =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr content_type);
  Buffer.add_string buf "\xfe\xfd";
  Buffer.add_string buf "\x00\x00";
  Buffer.add_string buf "\x00\x00\x00\x00\x00\x01";
  Buffer.add_char buf (Char.chr ((Bytes.length payload lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (Bytes.length payload land 0xff));
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

let dtls_handshake msg_type body =
  let buf = Buffer.create 32 in
  let be n v =
    for i = n - 1 downto 0 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  Buffer.add_char buf (Char.chr msg_type);
  be 3 (Bytes.length body);
  be 2 0;
  be 3 0;
  be 3 (Bytes.length body);
  Buffer.add_bytes buf body;
  Buffer.to_bytes buf

(* Re-seal the record length after body surgery. *)
let dtls_reframe b =
  let n = Bytes.length b in
  if n < 13 then b
  else begin
    let b = Bytes.copy b in
    let len = n - 13 in
    Bytes.set b 11 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set b 12 (Char.chr (len land 0xff));
    b
  end

let dtls_outer_len = field "record-len" Peer_fault.Outer_len 11 2
let dtls_msg_len = field "msg-len" Peer_fault.Inner_len 14 3
let dtls_frag_len = field "frag-len" Peer_fault.Inner_len 22 3

let dtls_hello ~with_cookie =
  let body = Buffer.create 48 in
  Buffer.add_string body "\xfe\xfd";
  Buffer.add_string body (String.make 32 'r');
  Buffer.add_char body '\000';
  if with_cookie then begin
    Buffer.add_char body '\016';
    Buffer.add_string body (String.make 16 'c')
  end
  else Buffer.add_char body '\000';
  Buffer.add_string body "\x00\x02\xc0\xa8";
  Buffer.add_string body "\x01\x00";
  let wire = dtls_record 22 (dtls_handshake 1 (Buffer.to_bytes body)) in
  let fields =
    [ dtls_outer_len; dtls_msg_len; dtls_frag_len;
      field "random" Peer_fault.Field 27 32 ]
    @ if with_cookie then [ field "cookie" Peer_fault.Field 61 16 ] else []
  in
  msg ~fields ~reframe:dtls_reframe
    (if with_cookie then "client-hello-cookie" else "client-hello")
    wire

let dtls_hs_msg name msg_type body =
  msg
    ~fields:[ dtls_outer_len; dtls_msg_len; dtls_frag_len ]
    ~reframe:dtls_reframe name
    (dtls_record 22 (dtls_handshake msg_type body))

let dtls_raw name content_type payload =
  msg
    ~fields:
      [ dtls_outer_len; field "payload" Peer_fault.Field 13 (Bytes.length payload) ]
    ~reframe:dtls_reframe name
    (dtls_record content_type payload)

let dtls_reply_is ?hs_type content_type resp =
  Bytes.length resp >= 13
  && Char.code (Bytes.get resp 0) = content_type
  &&
  match hs_type with
  | None -> true
  | Some ty -> Bytes.length resp >= 14 && Char.code (Bytes.get resp 13) = ty

let act name messages ~next ~expect =
  { a_name = name; a_messages = messages; a_next = next; a_expect = expect }

(* Domain-safe: built once, at load, and only read afterwards. *)
let dtls_script =
  let always _ = true in
  {
    p_target = "tinydtls";
    p_actions =
      [|
        act "hello"
          [ dtls_hello ~with_cookie:false ]
          ~next:(fun ~stage -> max stage 1)
          ~expect:(fun resp -> dtls_reply_is 22 resp);
        act "hello-cookie"
          [ dtls_hello ~with_cookie:true ]
          ~next:(fun ~stage:_ -> 2)
          ~expect:(fun resp -> dtls_reply_is ~hs_type:2 22 resp);
        act "key-exchange"
          [ dtls_hs_msg "client-key-exchange" 16 (Bytes.of_string "client-key-exchange") ]
          ~next:(fun ~stage -> max stage 3)
          ~expect:(fun resp -> Bytes.length resp >= 1 && Char.code (Bytes.get resp 0) = 20);
        act "appdata"
          [ dtls_raw "appdata" 23 (Bytes.of_string "hello-from-peer") ]
          ~next:same
          ~expect:(fun resp -> Bytes.length resp >= 1 && Char.code (Bytes.get resp 0) = 23);
        act "certificate"
          [ dtls_hs_msg "certificate" 11 (Bytes.make 16 '\000') ]
          ~next:same ~expect:always;
        act "finished"
          [ dtls_hs_msg "finished" 20 (Bytes.make 12 'f') ]
          ~next:same ~expect:always;
        act "ccs"
          [ dtls_raw "change-cipher-spec" 20 (Bytes.of_string "\x01") ]
          ~next:same ~expect:always;
        act "alert"
          [ dtls_raw "alert" 21 (Bytes.of_string "\x02\x28") ]
          ~next:(fun ~stage:_ -> 0)
          ~expect:always;
      |];
    p_banner = None;
    p_quarantine_after = 3;
    p_seed_actions = [ [ 0; 1; 2; 3 ]; [ 0; 1; 4; 5; 6; 3 ]; [ 0; 1; 2; 3; 7 ] ];
  }

(* ------------------------------------------------------------------ *)
(* mysql-client peer: a scripted MySQL *server* (the target dials out).
   Stages: 0 fresh (client awaits the greeting), 1 authenticating,
   2 connected (client issued its query). *)

let mysql_frame seq payload =
  let len = Bytes.length payload in
  let buf = Buffer.create (4 + len) in
  Buffer.add_char buf (Char.chr (len land 0xff));
  Buffer.add_char buf (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr (seq land 0xff));
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

let mysql_reframe b =
  if Bytes.length b < 4 then b
  else begin
    let b = Bytes.copy b in
    let len = Bytes.length b - 4 in
    Bytes.set b 0 (Char.chr (len land 0xff));
    Bytes.set b 1 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set b 2 (Char.chr ((len lsr 16) land 0xff));
    b
  end

let mysql_outer_len = field ~be:false "packet-len" Peer_fault.Outer_len 0 3

let mysql_msg ?(fields = []) name wire =
  msg ~fields:(mysql_outer_len :: fields) ~reframe:mysql_reframe name wire

(* The honest protocol-10 greeting, annotated: the 1-byte
   auth-plugin-data length at payload offset 32 (wire offset 36) is the
   inner length the client trusts when filling its 21-byte scramble
   buffer — the planted over-read from the paper's §5.4 case study. *)
let mysql_greeting =
  mysql_msg "server-greeting"
    ~fields:
      [
        field "version" Peer_fault.Field 5 10;
        field "salt1" Peer_fault.Field 20 8;
        field ~be:false "auth-len" Peer_fault.Inner_len 36 1;
        field "salt2" Peer_fault.Field 47 13;
      ]
    (Nyx_targets.Mysql_client.make_handshake ())

let mysql_payload_msg name seq payload =
  mysql_msg name
    ~fields:[ field "payload" Peer_fault.Field 4 (Bytes.length payload) ]
    (mysql_frame seq payload)

let mysql_script =
  let client_speaks resp = Bytes.length resp >= 5 in
  let client_silent resp = Bytes.length resp = 0 in
  {
    p_target = "mysql-client";
    p_actions =
      [|
        act "greeting" [ mysql_greeting ] ~next:(fun ~stage:_ -> 1) ~expect:client_speaks;
        act "auth-ok"
          [ mysql_payload_msg "auth-ok" 2 (Bytes.of_string "\x00\x00\x00\x02\x00\x00\x00") ]
          ~next:(fun ~stage:_ -> 2)
          ~expect:client_speaks;
        act "auth-err"
          [ mysql_payload_msg "auth-err" 2 (Bytes.of_string "\xff\x15\x04#28000Access denied") ]
          ~next:same ~expect:client_silent;
        act "auth-switch"
          [ mysql_payload_msg "auth-switch" 2 (Bytes.of_string "\xfemysql_native_password\000") ]
          ~next:same ~expect:client_speaks;
        act "result-columns"
          [ mysql_payload_msg "result-columns" 1 (Bytes.of_string "\x05") ]
          ~next:same ~expect:client_silent;
        act "result-row"
          [ mysql_payload_msg "result-row" 1 (Bytes.of_string "\xfb") ]
          ~next:same ~expect:client_silent;
        act "result-eof"
          [ mysql_payload_msg "result-eof" 1 (Bytes.of_string "\xfe\x00\x00\x02\x00") ]
          ~next:same ~expect:client_silent;
        act "result-err"
          [ mysql_payload_msg "result-err" 1 (Bytes.of_string "\xff\x15\x04#28000bad query") ]
          ~next:same ~expect:client_silent;
        act "many-columns"
          [ mysql_payload_msg "many-columns" 1 (Bytes.of_string "\x20") ]
          ~next:same ~expect:client_silent;
      |];
    p_banner = None;
    p_quarantine_after = 3;
    p_seed_actions = [ [ 0; 1; 4; 5; 6 ]; [ 0; 3; 1; 8; 7 ]; [ 0; 2; 3 ] ];
  }

(* ------------------------------------------------------------------ *)

(* Every script is built once, at load, and shared: by every campaign,
   and by the fleet's domains. Domain-safe: nothing writes a script after
   load; a fault copies a message's bytes before it changes them. *)
let scripts =
  [
    ("lightftp", Some (ftp_script ~extended:false "lightftp"));
    ("proftpd", Some (ftp_script ~extended:true "proftpd"));
    ("tinydtls", Some dtls_script);
    ("mysql-client", Some mysql_script);
  ]

let find name = Option.join (List.assoc_opt name scripts)
let supported () = List.map fst scripts

(* ------------------------------------------------------------------ *)
(* Peer-mode payload codec: byte 0 selects the action, byte 1 the
   encoder fault site (0 = none). Mutators flip these small payloads
   into other actions and fault arms; splice reorders whole actions. *)

let payload_of ?(fault = 0) action =
  let b = Bytes.create 2 in
  Bytes.set b 0 (Char.chr (action land 0xff));
  Bytes.set b 1 (Char.chr (fault land 0xff));
  b

let payload_action t payload = Char.code (Bytes.get payload 0) mod Array.length t.p_actions

let payload_selector payload =
  if Bytes.length payload >= 2 then Char.code (Bytes.get payload 1) mod 7 else 0

(* Domain-safe: read-only after load. *)
let peer_sites = Array.of_list Nyx_resilience.Fault.peer_sites

let selector_site sel = peer_sites.(sel - 1)

let seed_programs t net_spec =
  List.map
    (fun session ->
      Nyx_spec.Net_spec.seed_of_packets net_spec
        (List.map (fun i -> payload_of i) session))
    t.p_seed_actions
