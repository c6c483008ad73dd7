open Nyx_vm

let name = "mysql-client"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let greet_short = Ctx.edge_pair (site "greet:short")
  let greet_proto10 = Ctx.edge_pair (site "greet:proto10")
  let greet_unterminated_version = Ctx.edge (site "greet:unterminated-version")
  let greet_long_version = Ctx.edge_pair (site "greet:long-version")
  let greet_truncated = Ctx.edge_pair (site "greet:truncated")
  let greet_no_auth_data = Ctx.edge (site "greet:no-auth-data")
  let greet_auth_normal = Ctx.edge (site "greet:auth-normal")
  let greet_auth_long = Ctx.edge (site "greet:auth-long")
  let greet_salt_overflow = Ctx.edge_pair (site "greet:salt-overflow")
  let greet_silent_overread = Ctx.edge (site "greet:silent-overread")
  let greet_err_instead = Ctx.edge_pair (site "greet:err-instead")
  let greet_unknown_proto = Ctx.edge (site "greet:unknown-proto")
  let packet = Ctx.edge (site "packet")
  let frame_short = Ctx.edge_pair (site "frame:short")
  let auth_ok = Ctx.edge (site "auth:ok")
  let auth_err = Ctx.edge (site "auth:err")
  let auth_switch = Ctx.edge (site "auth:switch")
  let auth_unknown = Ctx.edge (site "auth:unknown")
  let result_ok = Ctx.edge (site "result:ok")
  let result_err = Ctx.edge (site "result:err")
  let err_short = Ctx.edge_pair (site "err:short")
  let err_with_state = Ctx.edge (site "err:with-state")
  let result_eof = Ctx.edge (site "result:eof")
  let result_columns = Ctx.edge (site "result:columns")
  let result_many_columns = Ctx.edge_pair (site "result:many-columns")
  let result_lenenc = Ctx.edge (site "result:lenenc")
end

(* MySQL wire packets: [len:3 LE][seq:1][payload]. *)
let frame seq payload =
  let len = Bytes.length payload in
  let buf = Buffer.create (4 + len) in
  Buffer.add_char buf (Char.chr (len land 0xff));
  Buffer.add_char buf (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr (seq land 0xff));
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

(* Server greeting (protocol 10): proto(1) version(NUL-str) thread(4)
   salt1(8) filler(1) caps(2) charset(1) status(2) caps2(2)
   auth_data_len(1) reserved(10) salt2(...). *)
let make_handshake ?(salt_len = 21) ?(version = "8.0.36-sim") () =
  let p = Buffer.create 64 in
  Buffer.add_char p '\x0a';
  Buffer.add_string p version;
  Buffer.add_char p '\000';
  Buffer.add_string p "\x01\x00\x00\x00" (* thread id *);
  Buffer.add_string p (String.make 8 's') (* salt part 1 *);
  Buffer.add_char p '\000';
  Buffer.add_string p "\xff\xf7" (* capabilities *);
  Buffer.add_char p '\x21' (* charset *);
  Buffer.add_string p "\x02\x00" (* status *);
  Buffer.add_string p "\xff\x81" (* capabilities 2 *);
  Buffer.add_char p (Char.chr (salt_len land 0xff));
  Buffer.add_string p (String.make 10 '\000');
  Buffer.add_string p (String.make (max 0 (min 13 (salt_len - 8))) 't');
  frame 0 (Buffer.to_bytes p)

let make_ok () = frame 2 (Bytes.of_string "\x00\x00\x00\x02\x00\x00\x00")

let make_err msg =
  frame 2 (Bytes.of_string (Printf.sprintf "\xff\x15\x04#28000%s" msg))

(* Connection phases. *)
let f_phase = 0 (* 0 awaiting greeting, 1 authenticating, 2 connected *)
let f_columns = 4

(* The client copies salt bytes into a fixed 21-byte scramble buffer; the
   advertised auth-plugin-data length is trusted — the planted OOB read.
   The buffer's guest address lives in the global state block. *)
let g_scramble_addr = 0
let scramble_len = 21

let on_init ctx ~g =
  let addr = Guest_heap.alloc ctx.Ctx.heap scramble_len in
  Guest_heap.set_i32 ctx.Ctx.heap (g + g_scramble_addr) addr

let parse_greeting ctx ~g payload =
  let heap = ctx.Ctx.heap in
  if Ctx.branch ctx Site.greet_short (Bytes.length payload < 5) then false
  else begin
    let proto = Char.code (Bytes.get payload 0) in
    if Ctx.branch ctx Site.greet_proto10 (proto = 10) then begin
      (* Version string: NUL-terminated. *)
      let nul = Bytes.index_opt payload '\000' in
      match nul with
      | None ->
        Ctx.hit ctx Site.greet_unterminated_version;
        false
      | Some vend ->
        ignore (Ctx.branch ctx Site.greet_long_version (vend > 24));
        let fixed = vend + 1 + 4 + 8 + 1 + 2 + 1 + 2 + 2 in
        if Ctx.branch ctx Site.greet_truncated (fixed + 1 > Bytes.length payload)
        then false
        else begin
          let auth_len = Char.code (Bytes.get payload fixed) in
          (match auth_len with
          | 0 -> Ctx.hit ctx Site.greet_no_auth_data
          | n when n <= 21 -> Ctx.hit ctx Site.greet_auth_normal
          | _ -> Ctx.hit ctx Site.greet_auth_long);
          (* Copy salt2 into the scramble buffer, trusting auth_len. *)
          let scramble = Guest_heap.get_i32 heap (g + g_scramble_addr) in
          let want = max 0 (auth_len - 8) in
          let from = fixed + 1 + 10 in
          let avail = max 0 (Bytes.length payload - from) in
          let n = min want avail in
          if Ctx.branch ctx Site.greet_salt_overflow (n > scramble_len) then begin
            if ctx.Ctx.asan then
              (* ASan flags the first byte past the allocation. *)
              Guest_heap.checked_set heap ~base:scramble ~off:0
                (Bytes.sub payload from n)
            else if n > scramble_len + 16 then
              (* Far past the buffer: the read crosses into unmapped
                 memory even without a sanitizer. *)
              Ctx.crash ctx ~kind:"oob-read"
                (Printf.sprintf
                   "greeting advertises %d bytes of auth data; scramble buffer holds %d"
                   auth_len scramble_len)
            else Ctx.hit ctx Site.greet_silent_overread
          end
          else if n > 0 then
            Guest_heap.set_bytes heap scramble (Bytes.sub payload from n);
          true
        end
    end
    else if Ctx.branch ctx Site.greet_err_instead (proto = 0xFF) then false
    else begin
      Ctx.hit ctx Site.greet_unknown_proto;
      false
    end
  end

let on_packet ctx ~g ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  Proto_util.iter_frames ~header_len:4
    ~frame_len:(fun h ->
      match Proto_util.read_be h ~pos:0 ~len:3 with
      | Some _ ->
        (* Length is little-endian in MySQL. *)
        let len =
          Char.code (Bytes.get h 0)
          lor (Char.code (Bytes.get h 1) lsl 8)
          lor (Char.code (Bytes.get h 2) lsl 16)
        in
        Some (4 + len)
      | None -> None)
    data
    (fun pkt ->
      if Ctx.branch ctx Site.frame_short (Bytes.length pkt < 5) then ()
      else begin
        let payload = Bytes.sub pkt 4 (Bytes.length pkt - 4) in
        let phase = Guest_heap.get_i32 heap (conn + f_phase) in
        match phase with
        | 0 ->
          if parse_greeting ctx ~g payload then begin
            Guest_heap.set_i32 heap (conn + f_phase) 1;
            Ctx.set_state ctx 1;
            (* Send the login request. *)
            reply (frame 1 (Bytes.of_string "\x85\xa6\xff\x01root\000"))
          end
        | 1 -> (
          match Char.code (Bytes.get payload 0) with
          | 0x00 ->
            Ctx.hit ctx Site.auth_ok;
            Guest_heap.set_i32 heap (conn + f_phase) 2;
            Ctx.set_state ctx 2;
            (* Issue the query the user typed. *)
            reply (frame 0 (Bytes.of_string "\x03SELECT 1"))
          | 0xFF ->
            Ctx.hit ctx Site.auth_err;
            Ctx.set_state ctx 255
          | 0xFE ->
            Ctx.hit ctx Site.auth_switch;
            reply (frame 3 (Bytes.of_string "scrambled-response"))
          | _ -> Ctx.hit ctx Site.auth_unknown)
        | _ -> (
          match Char.code (Bytes.get payload 0) with
          | 0x00 -> Ctx.hit ctx Site.result_ok
          | 0xFF ->
            Ctx.hit ctx Site.result_err;
            if Ctx.branch ctx Site.err_short (Bytes.length payload < 9) then ()
            else Ctx.hit ctx Site.err_with_state
          | 0xFE -> Ctx.hit ctx Site.result_eof
          | n when n <= 250 ->
            (* Column count, then that many column definitions follow. *)
            Ctx.hit ctx Site.result_columns;
            Guest_heap.set_i32 heap (conn + f_columns) n;
            ignore (Ctx.branch ctx Site.result_many_columns (n > 16))
          | _ -> Ctx.hit ctx Site.result_lenenc)
      end)

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Client;
        port = 3306;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Raw;
        startup_ns = 60_000_000;
        work_ns = 400_000;
        desock_compat = false;
        forking = false;
        max_recv = 16384;
        dict = [ "\x0a"; "8.0."; "\x00\x00\x00\x02"; "\xff\x15\x04#28000"; "\xfe" ];
      };
    hooks =
      {
        Target.default_hooks with
        global_state_size = 8;
        conn_state_size = 8;
        on_init;
        on_packet;
      };
  }

let seeds =
  [
    [ make_handshake (); make_ok (); make_ok () ];
    [ make_handshake (); make_err "Access denied" ];
  ]
