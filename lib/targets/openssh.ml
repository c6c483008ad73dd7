open Nyx_vm

let name = "openssh"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let kex_short = Ctx.edge_pair (site "kex:short")
  let kex_alg_overrun = Ctx.edge_pair (site "kex:alg-overrun")
  let kex_one_alg = Ctx.edge (site "kex:one-alg")
  let kex_few_algs = Ctx.edge (site "kex:few-algs")
  let kex_many_algs = Ctx.edge (site "kex:many-algs")
  let kex_match = Ctx.edge_pair (site "kex:match")
  let connect = Ctx.edge (site "connect")
  let packet = Ctx.edge (site "packet")
  let phase_version = Ctx.edge_pair (site "phase:version")
  let version_ssh2 = Ctx.edge_pair (site "version:ssh2")
  let version_ssh1 = Ctx.edge_pair (site "version:ssh1")
  let version_garbage = Ctx.edge (site "version:garbage")
  let pkt_short = Ctx.edge_pair (site "pkt:short")
  let pkt_len_ok = Ctx.edge_pair (site "pkt:len-ok")
  let msg_kexinit = Ctx.edge (site "msg:kexinit")
  let kexinit_reorder = Ctx.edge_pair (site "kexinit:reorder")
  let rekey = Ctx.edge (site "rekey")
  let msg_newkeys = Ctx.edge (site "msg:newkeys")
  let newkeys_order = Ctx.edge_pair (site "newkeys:order")
  let msg_service_request = Ctx.edge (site "msg:service-request")
  let service_order = Ctx.edge_pair (site "service:order")
  let service_userauth = Ctx.edge_pair (site "service:userauth")
  let service_userauth_raw = Ctx.edge_pair (site "service:userauth-raw")
  let msg_userauth = Ctx.edge (site "msg:userauth")
  let auth_order = Ctx.edge_pair (site "auth:order")
  let auth_none = Ctx.edge_pair (site "auth:none")
  let auth_password = Ctx.edge_pair (site "auth:password")
  let auth_lockout = Ctx.edge_pair (site "auth:lockout")
  let auth_other_method = Ctx.edge (site "auth:other-method")
  let msg_disconnect = Ctx.edge (site "msg:disconnect")
  let msg_ignore = Ctx.edge (site "msg:ignore")
  let msg_debug = Ctx.edge (site "msg:debug")
  let msg_unimplemented = Ctx.edge (site "msg:unimplemented")
end

(* Connection phases. *)
let f_phase = 0 (* 0 version, 1 kex, 2 keys, 3 service, 4 auth, 5 session *)
let f_auth_failures = 4

let make_packet msg_type payload =
  let len = 1 + Bytes.length payload in
  let buf = Buffer.create (4 + len) in
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((len lsr (8 * i)) land 0xff))
  done;
  Buffer.add_char buf (Char.chr msg_type);
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

(* KEXINIT payload: cookie(16) then one length-prefixed algorithm list. *)
let make_kexinit () =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (String.make 16 'k');
  let algs = "curve25519-sha256,diffie-hellman-group14-sha256" in
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((String.length algs lsr (8 * i)) land 0xff))
  done;
  Buffer.add_string buf algs;
  make_packet 20 (Buffer.to_bytes buf)

let known_kex_algorithms =
  [ "curve25519-sha256"; "diffie-hellman-group14-sha256"; "ecdh-sha2-nistp256" ]

let parse_kexinit ctx payload =
  if Ctx.branch ctx Site.kex_short (Bytes.length payload < 21) then false
  else begin
    match Proto_util.read_be payload ~pos:16 ~len:4 with
    | None -> false
    | Some alg_len ->
      if Ctx.branch ctx Site.kex_alg_overrun (20 + alg_len > Bytes.length payload)
      then false
      else begin
        let algs = Bytes.sub_string payload 20 alg_len in
        let names = String.split_on_char ',' algs in
        (match List.length names with
        | 0 | 1 -> Ctx.hit ctx Site.kex_one_alg
        | n when n <= 4 -> Ctx.hit ctx Site.kex_few_algs
        | _ -> Ctx.hit ctx Site.kex_many_algs);
        let matched = List.exists (fun a -> List.mem a known_kex_algorithms) names in
        ignore (Ctx.branch ctx Site.kex_match matched);
        matched
      end
  end

let on_connect ctx ~g:_ ~conn:_ ~reply =
  Ctx.hit ctx Site.connect;
  reply (Bytes.of_string "SSH-2.0-OpenSSH_8.9\r\n")

let handle_packet ctx ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  let phase = Guest_heap.get_i32 heap (conn + f_phase) in
  if Ctx.branch ctx Site.phase_version (phase = 0) then begin
    let line = Proto_util.line_of data in
    if Ctx.branch ctx Site.version_ssh2 (Proto_util.starts_with_ci ~prefix:"SSH-2.0" line)
    then begin
      Guest_heap.set_i32 heap (conn + f_phase) 1;
      Ctx.set_state ctx 1
    end
    else if Ctx.branch ctx Site.version_ssh1 (Proto_util.starts_with_ci ~prefix:"SSH-1" line)
    then reply (Bytes.of_string "Protocol major versions differ.\r\n")
    else Ctx.hit ctx Site.version_garbage
  end
  else begin
    if Ctx.branch ctx Site.pkt_short (Bytes.length data < 5) then ()
    else begin
      let msg_type = Char.code (Bytes.get data 4) in
      let declared = Option.value ~default:0 (Proto_util.read_be data ~pos:0 ~len:4) in
      ignore (Ctx.branch ctx Site.pkt_len_ok (declared = Bytes.length data - 4));
      let payload = Bytes.sub data 5 (Bytes.length data - 5) in
      match msg_type with
      | 20 ->
        Ctx.hit ctx Site.msg_kexinit;
        if Ctx.branch ctx Site.kexinit_reorder (phase > 2) then
          (* Re-keying: allowed any time after keys. *)
          Ctx.hit ctx Site.rekey
        else if parse_kexinit ctx payload then begin
          Guest_heap.set_i32 heap (conn + f_phase) 2;
          Ctx.set_state ctx 2;
          reply (make_kexinit ())
        end
        else reply (make_packet 1 (Bytes.of_string "no matching kex"))
      | 21 ->
        Ctx.hit ctx Site.msg_newkeys;
        if Ctx.branch ctx Site.newkeys_order (phase <> 2) then
          reply (make_packet 1 (Bytes.of_string "protocol error"))
        else begin
          Guest_heap.set_i32 heap (conn + f_phase) 3;
          Ctx.set_state ctx 3;
          reply (make_packet 21 Bytes.empty)
        end
      | 5 ->
        Ctx.hit ctx Site.msg_service_request;
        if Ctx.branch ctx Site.service_order (phase < 3) then
          reply (make_packet 1 (Bytes.of_string "no keys"))
        else begin
          let service = Bytes.to_string payload in
          if Ctx.branch ctx Site.service_userauth
               (String.length service >= 12 && String.sub service 0 4 = "\x00\x00\x00\x0c")
             || Ctx.branch ctx Site.service_userauth_raw
                  (Proto_util.starts_with_ci ~prefix:"ssh-userauth"
                     (String.concat "" (String.split_on_char '\000' service)))
          then begin
            Guest_heap.set_i32 heap (conn + f_phase) 4;
            Ctx.set_state ctx 4;
            reply (make_packet 6 payload)
          end
          else reply (make_packet 1 (Bytes.of_string "unknown service"))
        end
      | 50 ->
        Ctx.hit ctx Site.msg_userauth;
        if Ctx.branch ctx Site.auth_order (phase < 4) then
          reply (make_packet 1 (Bytes.of_string "service first"))
        else begin
          let body = Bytes.to_string payload in
          if Ctx.branch ctx Site.auth_none
               (String.length body > 4 && String.contains body 'n'
               && Proto_util.starts_with_ci ~prefix:"none"
                    (String.concat "" (String.split_on_char '\000' body)))
          then reply (make_packet 51 (Bytes.of_string "publickey,password"))
          else if Ctx.branch ctx Site.auth_password (String.contains body 'p') then begin
            let failures = Guest_heap.get_i32 heap (conn + f_auth_failures) + 1 in
            Guest_heap.set_i32 heap (conn + f_auth_failures) failures;
            if Ctx.branch ctx Site.auth_lockout (failures > 5) then
              reply (make_packet 1 (Bytes.of_string "too many failures"))
            else reply (make_packet 51 (Bytes.of_string "publickey,password"))
          end
          else begin
            Ctx.hit ctx Site.auth_other_method;
            reply (make_packet 51 (Bytes.of_string "publickey,password"))
          end
        end
      | 1 -> Ctx.hit ctx Site.msg_disconnect
      | 2 -> Ctx.hit ctx Site.msg_ignore
      | 4 -> Ctx.hit ctx Site.msg_debug
      | _ -> Ctx.hit ctx Site.msg_unimplemented
    end
  end

(* After the version exchange the transport is length-framed: one read
   may carry several SSH packets. *)
let on_packet ctx ~g:_ ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  if Guest_heap.get_i32 heap (conn + f_phase) = 0 then handle_packet ctx ~conn ~reply data
  else
    Proto_util.iter_frames ~header_len:4
      ~frame_len:(fun h -> Option.map (fun l -> 4 + l) (Proto_util.read_be h ~pos:0 ~len:4))
      data
      (fun frame -> handle_packet ctx ~conn ~reply frame)

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 22;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Raw;
        startup_ns = 80_000_000;
        work_ns = 1_700_000;
        desock_compat = true;
        forking = false;
        max_recv = 4096;
        dict = [ "SSH-2.0-"; "ssh-userauth"; "none"; "password"; "curve25519-sha256" ];
      };
    hooks =
      { Target.default_hooks with conn_state_size = 8; on_connect; on_packet };
  }

let seeds =
  [
    [
      Bytes.of_string "SSH-2.0-OpenSSH_9.0 client\r\n";
      make_kexinit ();
      make_packet 21 Bytes.empty;
      make_packet 5 (Bytes.of_string "\x00\x00\x00\x0cssh-userauth");
      make_packet 50 (Bytes.of_string "\x00\x00\x00\x04none");
    ];
  ]
