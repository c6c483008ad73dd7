let name = "tinydtls"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let packet = Ctx.edge (site "packet")
  let short_record = Ctx.edge_pair (site "short-record")
  let ver_dtls12 = Ctx.edge_pair (site "ver:dtls12")
  let epoch_zero = Ctx.edge_pair (site "epoch:zero")
  let len_mismatch = Ctx.edge_pair (site "len:mismatch")
  let ccs = Ctx.edge (site "ccs")
  let alert = Ctx.edge (site "alert")
  let appdata = Ctx.edge (site "appdata")
  let appdata_early = Ctx.edge_pair (site "appdata:early")
  let handshake = Ctx.edge (site "handshake")
  let hs_short = Ctx.edge_pair (site "hs:short")
  let hs_frag_underflow = Ctx.edge_pair (site "hs:frag-underflow")
  let hs_frag_offset = Ctx.edge_pair (site "hs:frag-offset")
  let hs_client_hello = Ctx.edge (site "hs:client-hello")
  let hs_need_cookie = Ctx.edge_pair (site "hs:need-cookie")
  let hs_client_key_exchange = Ctx.edge (site "hs:client-key-exchange")
  let hs_certificate = Ctx.edge (site "hs:certificate")
  let hs_finished = Ctx.edge (site "hs:finished")
  let hs_other = Ctx.edge (site "hs:other")
  let ctype_other = Ctx.edge (site "ctype:other")
end

(* DTLS record: type(1) ver(2) epoch(2) seq(6) len(2) payload.
   Handshake fragment: msg_type(1) length(3) msg_seq(2) frag_off(3)
   frag_len(3) body. *)

let record_header_len = 13
let hs_header_len = 12

let make_record content_type payload =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr content_type);
  Buffer.add_string buf "\xfe\xfd" (* DTLS 1.2 *);
  Buffer.add_string buf "\x00\x00" (* epoch *);
  Buffer.add_string buf "\x00\x00\x00\x00\x00\x01" (* seq *);
  Buffer.add_char buf (Char.chr ((Bytes.length payload lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (Bytes.length payload land 0xff));
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

let make_handshake msg_type body =
  let buf = Buffer.create 32 in
  let be n v =
    for i = n - 1 downto 0 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  Buffer.add_char buf (Char.chr msg_type);
  be 3 (Bytes.length body);
  be 2 0 (* msg_seq *);
  be 3 0 (* frag_off *);
  be 3 (Bytes.length body) (* frag_len *);
  Buffer.add_bytes buf body;
  Buffer.to_bytes buf

let make_client_hello ?(with_cookie = false) () =
  let body = Buffer.create 48 in
  Buffer.add_string body "\xfe\xfd" (* client_version *);
  Buffer.add_string body (String.make 32 'r') (* random *);
  Buffer.add_char body '\000' (* session id len *);
  if with_cookie then begin
    Buffer.add_char body '\016';
    Buffer.add_string body (String.make 16 'c')
  end
  else Buffer.add_char body '\000';
  Buffer.add_string body "\x00\x02\xc0\xa8" (* one cipher suite *);
  Buffer.add_string body "\x01\x00" (* null compression *);
  make_record 22 (make_handshake 1 (Buffer.to_bytes body))

(* Per-flow state offsets. *)
let f_state = 0 (* 0 = fresh, 1 = cookie sent, 2 = handshake started *)

let on_packet ctx ~g:_ ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  if Ctx.branch ctx Site.short_record (Bytes.length data < record_header_len) then ()
  else begin
    let be pos len = Option.value ~default:0 (Proto_util.read_be data ~pos ~len) in
    let content_type = be 0 1 in
    let version = be 1 2 in
    let epoch = be 3 2 in
    let rec_len = be 11 2 in
    ignore (Ctx.branch ctx Site.ver_dtls12 (version = 0xFEFD));
    ignore (Ctx.branch ctx Site.epoch_zero (epoch = 0));
    if Ctx.branch ctx Site.len_mismatch (record_header_len + rec_len > Bytes.length data)
    then () (* truncated record dropped *)
    else begin
      match content_type with
      | 20 -> Ctx.hit ctx Site.ccs
      | 21 ->
        Ctx.hit ctx Site.alert;
        Ctx.set_state ctx 21
      | 23 ->
        Ctx.hit ctx Site.appdata;
        if Ctx.branch ctx Site.appdata_early
             (Nyx_vm.Guest_heap.get_i32 heap (conn + f_state) < 2)
        then () (* app data before handshake: dropped *)
        else reply (make_record 23 (Bytes.of_string "ok"))
      | 22 ->
        Ctx.hit ctx Site.handshake;
        if Ctx.branch ctx Site.hs_short (rec_len < hs_header_len) then ()
        else begin
          let msg_type = be record_header_len 1 in
          let msg_len = be (record_header_len + 1) 3 in
          let frag_off = be (record_header_len + 6) 3 in
          let frag_len = be (record_header_len + 9) 3 in
          (* The planted bug: reassembly computes msg_len - frag_len
             without checking frag_len <= msg_len. *)
          if Ctx.branch ctx Site.hs_frag_underflow (frag_len > msg_len) then
            Ctx.crash ctx ~kind:"integer-underflow"
              (Printf.sprintf "fragment_length %d exceeds message length %d" frag_len
                 msg_len);
          if Ctx.branch ctx Site.hs_frag_offset (frag_off + frag_len > msg_len) then ()
          else begin
            match msg_type with
            | 1 ->
              Ctx.hit ctx Site.hs_client_hello;
              let st = Nyx_vm.Guest_heap.get_i32 heap (conn + f_state) in
              if Ctx.branch ctx Site.hs_need_cookie (st = 0) then begin
                Nyx_vm.Guest_heap.set_i32 heap (conn + f_state) 1;
                Ctx.set_state ctx 3;
                reply (make_record 22 (make_handshake 3 (Bytes.of_string "cookie")))
              end
              else begin
                Nyx_vm.Guest_heap.set_i32 heap (conn + f_state) 2;
                Ctx.set_state ctx 2;
                reply (make_record 22 (make_handshake 2 (Bytes.of_string "server-hello")))
              end
            | 16 ->
              Ctx.hit ctx Site.hs_client_key_exchange;
              reply (make_record 20 (Bytes.of_string "\x01"))
            | 11 -> Ctx.hit ctx Site.hs_certificate
            | 20 -> Ctx.hit ctx Site.hs_finished
            | _ -> Ctx.hit ctx Site.hs_other
          end
        end
      | _ -> Ctx.hit ctx Site.ctype_other
    end
  end

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 20220;
        proto = Nyx_netemu.Net.Udp;
        dissector = Nyx_pcap.Dissector.Datagram;
        startup_ns = 30_000_000;
        work_ns = 450_000;
        desock_compat = false;
        forking = false;
        max_recv = 1500;
        dict = [ "\xfe\xfd"; "\x16"; "\x01"; "\x03" ];
      };
    hooks = { Target.default_hooks with conn_state_size = 8; on_packet };
  }

let seeds =
  [ [ make_client_hello (); make_client_hello ~with_cookie:true () ] ]
