open Nyx_vm

let name = "openssl"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let ext_overrun = Ctx.edge_pair (site "ext:overrun")
  let ext_sni = Ctx.edge (site "ext:sni")
  let sni_dotted = Ctx.edge_pair (site "sni:dotted")
  let sni_long = Ctx.edge_pair (site "sni:long")
  let sni_bad_hostlen = Ctx.edge (site "sni:bad-hostlen")
  let sni_bad_list = Ctx.edge (site "sni:bad-list")
  let ext_alpn = Ctx.edge (site "ext:alpn")
  let ext_groups = Ctx.edge (site "ext:groups")
  let ext_sigalgs = Ctx.edge (site "ext:sigalgs")
  let ext_versions = Ctx.edge (site "ext:versions")
  let ver_tls13 = Ctx.edge (site "ver:tls13")
  let ver_tls12 = Ctx.edge (site "ver:tls12")
  let ver_other = Ctx.edge (site "ver:other")
  let ext_keyshare = Ctx.edge (site "ext:keyshare")
  let ext_psk = Ctx.edge (site "ext:psk")
  let ext_early_data = Ctx.edge (site "ext:early-data")
  let ext_cookie = Ctx.edge (site "ext:cookie")
  let ext_unknown = Ctx.edge (site "ext:unknown")
  let ch_short = Ctx.edge_pair (site "ch:short")
  let ch_ver12 = Ctx.edge (site "ch:ver12")
  let ch_ver10 = Ctx.edge (site "ch:ver10")
  let ch_ver_other = Ctx.edge (site "ch:ver-other")
  let ch_sid_overrun = Ctx.edge_pair (site "ch:sid-overrun")
  let ch_resumption = Ctx.edge_pair (site "ch:resumption")
  let ch_suites_overrun = Ctx.edge_pair (site "ch:suites-overrun")
  let suites_none = Ctx.edge (site "suites:none")
  let suites_few = Ctx.edge (site "suites:few")
  let suites_normal = Ctx.edge (site "suites:normal")
  let suites_excessive = Ctx.edge (site "suites:excessive")
  let suites_scsv = Ctx.edge (site "suites:scsv")
  let suites_tls13 = Ctx.edge_pair (site "suites:tls13")
  let ch_many_exts = Ctx.edge_pair (site "ch:many-exts")
  let ch_no_exts = Ctx.edge (site "ch:no-exts")
  let packet = Ctx.edge (site "packet")
  let rec_short = Ctx.edge_pair (site "rec:short")
  let rec_len_ok = Ctx.edge_pair (site "rec:len-ok")
  let rec_oversize = Ctx.edge_pair (site "rec:oversize")
  let rec_handshake = Ctx.edge (site "rec:handshake")
  let hs_short = Ctx.edge_pair (site "hs:short")
  let hs_client_hello = Ctx.edge (site "hs:client-hello")
  let hs_certificate = Ctx.edge (site "hs:certificate")
  let hs_client_key_exchange = Ctx.edge (site "hs:client-key-exchange")
  let cke_early = Ctx.edge_pair (site "cke:early")
  let hs_finished = Ctx.edge (site "hs:finished")
  let hs_other = Ctx.edge (site "hs:other")
  let rec_ccs = Ctx.edge (site "rec:ccs")
  let ccs_order = Ctx.edge_pair (site "ccs:order")
  let rec_alert = Ctx.edge (site "rec:alert")
  let alert_fatal = Ctx.edge_pair (site "alert:fatal")
  let rec_appdata = Ctx.edge (site "rec:appdata")
  let appdata_encrypted = Ctx.edge_pair (site "appdata:encrypted")
  let rec_unknown = Ctx.edge (site "rec:unknown")
end

let f_state = 0 (* 0 fresh, 1 hello-seen, 2 ccs-seen *)

(* Record: type(1) ver(2) len(2) payload. *)
let make_record ctype payload =
  let buf = Buffer.create (5 + Bytes.length payload) in
  Buffer.add_char buf (Char.chr ctype);
  Buffer.add_string buf "\x03\x03";
  Buffer.add_char buf (Char.chr ((Bytes.length payload lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (Bytes.length payload land 0xff));
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

let make_client_hello ?sni ?(n_suites = 2) () =
  let body = Buffer.create 128 in
  let u16 v =
    Buffer.add_char body (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char body (Char.chr (v land 0xff))
  in
  u16 0x0303 (* legacy version *);
  Buffer.add_string body (String.make 32 'R') (* random *);
  Buffer.add_char body '\000' (* session id *);
  u16 (2 * n_suites);
  for i = 0 to n_suites - 1 do
    u16 (0x1301 + i)
  done;
  Buffer.add_string body "\x01\x00" (* compression *);
  let exts = Buffer.create 64 in
  let ext id payload =
    Buffer.add_char exts (Char.chr ((id lsr 8) land 0xff));
    Buffer.add_char exts (Char.chr (id land 0xff));
    Buffer.add_char exts (Char.chr ((String.length payload lsr 8) land 0xff));
    Buffer.add_char exts (Char.chr (String.length payload land 0xff));
    Buffer.add_string exts payload
  in
  (match sni with
  | Some host ->
    let entry = Printf.sprintf "\x00%c%c%s"
        (Char.chr ((String.length host lsr 8) land 0xff))
        (Char.chr (String.length host land 0xff)) host in
    let list_ = Printf.sprintf "%c%c%s"
        (Char.chr (((String.length entry) lsr 8) land 0xff))
        (Char.chr ((String.length entry) land 0xff)) entry in
    ext 0 list_
  | None -> ());
  ext 43 "\x02\x03\x04" (* supported_versions: TLS 1.3 *);
  ext 13 "\x00\x02\x04\x03" (* signature_algorithms *);
  u16 (Buffer.length exts);
  Buffer.add_buffer body exts;
  (* Handshake header: type(1) len(3). *)
  let hs = Buffer.create 4 in
  Buffer.add_char hs '\x01';
  let blen = Buffer.length body in
  Buffer.add_char hs (Char.chr ((blen lsr 16) land 0xff));
  Buffer.add_char hs (Char.chr ((blen lsr 8) land 0xff));
  Buffer.add_char hs (Char.chr (blen land 0xff));
  Buffer.add_buffer hs body;
  make_record 22 (Buffer.to_bytes hs)

let parse_extensions ctx payload pos limit =
  let be p l = Proto_util.read_be payload ~pos:p ~len:l in
  let pos = ref pos in
  let count = ref 0 in
  let continue = ref true in
  while !continue && !pos + 4 <= limit do
    match (be !pos 2, be (!pos + 2) 2) with
    | Some ext_id, Some ext_len ->
      incr count;
      if Ctx.branch ctx Site.ext_overrun (!pos + 4 + ext_len > limit) then
        continue := false
      else begin
        (match ext_id with
        | 0 ->
          Ctx.hit ctx Site.ext_sni;
          (* server_name list: len(2) type(1) hostlen(2) host *)
          (match be (!pos + 4) 2 with
          | Some list_len when list_len >= 3 && list_len <= ext_len - 2 -> (
            match be (!pos + 7) 2 with
            | Some host_len when host_len + 3 <= list_len ->
              let host = Bytes.sub_string payload (!pos + 9) host_len in
              ignore (Ctx.branch ctx Site.sni_dotted (String.contains host '.'));
              ignore (Ctx.branch ctx Site.sni_long (host_len > 64))
            | _ -> Ctx.hit ctx Site.sni_bad_hostlen)
          | _ -> Ctx.hit ctx Site.sni_bad_list)
        | 16 -> Ctx.hit ctx Site.ext_alpn
        | 10 -> Ctx.hit ctx Site.ext_groups
        | 13 -> Ctx.hit ctx Site.ext_sigalgs
        | 43 ->
          Ctx.hit ctx Site.ext_versions;
          (match be (!pos + 5) 2 with
          | Some 0x0304 -> Ctx.hit ctx Site.ver_tls13
          | Some 0x0303 -> Ctx.hit ctx Site.ver_tls12
          | _ -> Ctx.hit ctx Site.ver_other)
        | 51 -> Ctx.hit ctx Site.ext_keyshare
        | 41 -> Ctx.hit ctx Site.ext_psk
        | 42 -> Ctx.hit ctx Site.ext_early_data
        | 44 -> Ctx.hit ctx Site.ext_cookie
        | _ -> Ctx.hit ctx Site.ext_unknown);
        pos := !pos + 4 + ext_len
      end
    | _ -> continue := false
  done;
  !count

let parse_client_hello ctx payload =
  let be p l = Proto_util.read_be payload ~pos:p ~len:l in
  if Ctx.branch ctx Site.ch_short (Bytes.length payload < 38) then false
  else begin
    (match be 0 2 with
    | Some 0x0303 -> Ctx.hit ctx Site.ch_ver12
    | Some 0x0301 -> Ctx.hit ctx Site.ch_ver10
    | _ -> Ctx.hit ctx Site.ch_ver_other);
    let sid_len = Option.value ~default:0 (be 34 1) in
    if Ctx.branch ctx Site.ch_sid_overrun (35 + sid_len + 2 > Bytes.length payload)
    then false
    else begin
      ignore (Ctx.branch ctx Site.ch_resumption (sid_len > 0));
      let suites_pos = 35 + sid_len in
      let suites_len = Option.value ~default:0 (be suites_pos 2) in
      if Ctx.branch ctx Site.ch_suites_overrun
           (suites_pos + 2 + suites_len > Bytes.length payload)
      then false
      else begin
        (match suites_len / 2 with
        | 0 -> Ctx.hit ctx Site.suites_none
        | n when n <= 4 -> Ctx.hit ctx Site.suites_few
        | n when n <= 16 -> Ctx.hit ctx Site.suites_normal
        | _ -> Ctx.hit ctx Site.suites_excessive);
        let rec scan_suites i found13 =
          if i + 2 > suites_len then found13
          else
            match be (suites_pos + 2 + i) 2 with
            | Some s when s >= 0x1301 && s <= 0x1303 -> scan_suites (i + 2) true
            | Some 0x00ff ->
              Ctx.hit ctx Site.suites_scsv;
              scan_suites (i + 2) found13
            | _ -> scan_suites (i + 2) found13
        in
        ignore (Ctx.branch ctx Site.suites_tls13 (scan_suites 0 false));
        let comp_pos = suites_pos + 2 + suites_len in
        let comp_len = Option.value ~default:0 (be comp_pos 1) in
        let ext_pos = comp_pos + 1 + comp_len in
        if ext_pos + 2 <= Bytes.length payload then begin
          let ext_len = Option.value ~default:0 (be ext_pos 2) in
          let limit = min (Bytes.length payload) (ext_pos + 2 + ext_len) in
          let n = parse_extensions ctx payload (ext_pos + 2) limit in
          ignore (Ctx.branch ctx Site.ch_many_exts (n > 4))
        end
        else Ctx.hit ctx Site.ch_no_exts;
        true
      end
    end
  end

let handle_record ctx ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  if Ctx.branch ctx Site.rec_short (Bytes.length data < 5) then ()
  else begin
    let ctype = Char.code (Bytes.get data 0) in
    let rec_len = Option.value ~default:0 (Proto_util.read_be data ~pos:3 ~len:2) in
    ignore (Ctx.branch ctx Site.rec_len_ok (5 + rec_len = Bytes.length data));
    if Ctx.branch ctx Site.rec_oversize (rec_len > 16384) then
      reply (make_record 21 (Bytes.of_string "\x02\x16" (* record_overflow *)))
    else begin
      match ctype with
      | 22 ->
        Ctx.hit ctx Site.rec_handshake;
        if Ctx.branch ctx Site.hs_short (Bytes.length data < 9) then ()
        else begin
          let hs_type = Char.code (Bytes.get data 5) in
          let body = Bytes.sub data 9 (Bytes.length data - 9) in
          match hs_type with
          | 1 ->
            Ctx.hit ctx Site.hs_client_hello;
            if parse_client_hello ctx body then begin
              Guest_heap.set_i32 heap (conn + f_state) 1;
              Ctx.set_state ctx 1;
              reply (make_record 22 (Bytes.of_string "\x02\x00\x00\x26server-hello"))
            end
            else begin
              Ctx.set_state ctx 21;
              reply (make_record 21 (Bytes.of_string "\x02\x32" (* decode_error *)))
            end
          | 11 -> Ctx.hit ctx Site.hs_certificate
          | 16 ->
            Ctx.hit ctx Site.hs_client_key_exchange;
            if Ctx.branch ctx Site.cke_early
                 (Guest_heap.get_i32 heap (conn + f_state) = 0)
            then reply (make_record 21 (Bytes.of_string "\x02\x0a"))
          | 20 -> Ctx.hit ctx Site.hs_finished
          | _ -> Ctx.hit ctx Site.hs_other
        end
      | 20 ->
        Ctx.hit ctx Site.rec_ccs;
        if Ctx.branch ctx Site.ccs_order (Guest_heap.get_i32 heap (conn + f_state) < 1)
        then reply (make_record 21 (Bytes.of_string "\x02\x0a" (* unexpected *)))
        else Guest_heap.set_i32 heap (conn + f_state) 2
      | 21 ->
        Ctx.hit ctx Site.rec_alert;
        if Bytes.length data >= 7 then begin
          let level = Char.code (Bytes.get data 5) in
          ignore (Ctx.branch ctx Site.alert_fatal (level = 2))
        end
      | 23 ->
        Ctx.hit ctx Site.rec_appdata;
        if Ctx.branch ctx Site.appdata_encrypted
             (Guest_heap.get_i32 heap (conn + f_state) = 2)
        then reply (make_record 23 (Bytes.of_string "ok"))
      | _ -> Ctx.hit ctx Site.rec_unknown
    end
  end

(* One TCP read may carry several TLS records: walk them by the record
   length field. *)
let on_packet ctx ~g:_ ~conn ~reply data =
  Proto_util.iter_frames ~header_len:5
    ~frame_len:(fun h -> Option.map (fun l -> 5 + l) (Proto_util.read_be h ~pos:3 ~len:2))
    data
    (fun frame -> handle_record ctx ~conn ~reply frame)

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 4433;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Raw;
        startup_ns = 100_000_000;
        work_ns = 650_000;
        desock_compat = true;
        forking = false;
        max_recv = 17000;
        dict = [ "\x16\x03\x03"; "\x01\x00"; "\x00\x2b"; "\x13\x01"; "\x03\x04" ];
      };
    hooks = { Target.default_hooks with conn_state_size = 8; on_packet };
  }

let seeds =
  [
    [
      make_client_hello ~sni:"server.example.com" ();
      make_record 20 (Bytes.of_string "\x01");
      make_record 23 (Bytes.of_string "GET / HTTP/1.1");
    ];
    [ make_client_hello ~n_suites:8 () ];
  ]
