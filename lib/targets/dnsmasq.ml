let name = "dnsmasq"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let name_truncated = Ctx.edge (site "name:truncated")
  let name_pointer = Ctx.edge (site "name:pointer")
  let name_fwdptr = Ctx.edge_pair (site "name:fwdptr")
  let name_badlen = Ctx.edge (site "name:badlen")
  let name_overrun = Ctx.edge_pair (site "name:overrun")
  let packet = Ctx.edge (site "packet")
  let short = Ctx.edge_pair (site "short")
  let qr = Ctx.edge_pair (site "qr")
  let op_query = Ctx.edge (site "op:query")
  let op_iquery = Ctx.edge (site "op:iquery")
  let op_status = Ctx.edge (site "op:status")
  let op_notify = Ctx.edge (site "op:notify")
  let op_update = Ctx.edge (site "op:update")
  let op_reserved = Ctx.edge (site "op:reserved")
  let rd = Ctx.edge_pair (site "rd")
  let qd_none = Ctx.edge_pair (site "qd:none")
  let qd_many = Ctx.edge_pair (site "qd:many")
  let root_query = Ctx.edge (site "root-query")
  let single_label = Ctx.edge (site "single-label")
  let deep_name = Ctx.edge (site "deep-name")
  let multi_label = Ctx.edge (site "multi-label")
  let qtype_a = Ctx.edge (site "qtype:A")
  let qtype_aaaa = Ctx.edge (site "qtype:AAAA")
  let qtype_mx = Ctx.edge (site "qtype:MX")
  let qtype_txt = Ctx.edge (site "qtype:TXT")
  let qtype_ptr = Ctx.edge (site "qtype:PTR")
  let qtype_srv = Ctx.edge (site "qtype:SRV")
  let qtype_any = Ctx.edge (site "qtype:ANY")
  let qtype_other = Ctx.edge (site "qtype:other")
end

let make_query ?(id = 0x1234) ?(qtype = 1) host =
  let buf = Buffer.create 64 in
  let u16 v =
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (v land 0xff))
  in
  u16 id;
  u16 0x0100 (* RD *);
  u16 1 (* qdcount *);
  u16 0;
  u16 0;
  u16 0;
  List.iter
    (fun label ->
      Buffer.add_char buf (Char.chr (String.length label));
      Buffer.add_string buf label)
    (String.split_on_char '.' host);
  Buffer.add_char buf '\000';
  u16 qtype;
  u16 1 (* IN *);
  Buffer.to_bytes buf

(* Parse one (possibly compressed) name starting at [pos]; returns the
   label count or crashes on a pointer chain deeper than the recursion
   budget — the planted stack-exhaustion bug. *)
let parse_name ctx data pos =
  let max_hops = 4 in
  let rec walk pos hops labels =
    if hops > max_hops then
      Ctx.crash ctx ~kind:"stack-exhaustion"
        "compressed-name pointer chain exceeds recursion budget";
    match Proto_util.byte_at data pos with
    | None ->
      Ctx.hit ctx Site.name_truncated;
      labels
    | Some 0 -> labels
    | Some len when len >= 0xC0 -> (
      Ctx.hit ctx Site.name_pointer;
      match Proto_util.byte_at data (pos + 1) with
      | None -> labels
      | Some lo ->
        let target = ((len land 0x3F) lsl 8) lor lo in
        if Ctx.branch ctx Site.name_fwdptr (target >= pos) then
          (* Self- and forward-pointing compression pointers are never
             validated: following one loops until the stack is gone. *)
          Ctx.crash ctx ~kind:"stack-exhaustion"
            (Printf.sprintf "compression pointer at %d jumps forward to %d" pos target)
        else walk target (hops + 1) labels)
    | Some len when len > 63 ->
      Ctx.hit ctx Site.name_badlen;
      labels
    | Some len ->
      if Ctx.branch ctx Site.name_overrun (pos + 1 + len > Bytes.length data) then
        labels
      else walk (pos + 1 + len) hops (labels + 1)
  in
  walk pos 0 0

let on_packet ctx ~g:_ ~conn:_ ~reply data =
  Ctx.hit ctx Site.packet;
  if Ctx.branch ctx Site.short (Bytes.length data < 12) then ()
  else begin
    let be pos len = Option.value ~default:0 (Proto_util.read_be data ~pos ~len) in
    let id = be 0 2 in
    let flags = be 2 2 in
    let qdcount = be 4 2 in
    let qr = flags land 0x8000 <> 0 in
    let opcode = (flags lsr 11) land 0xF in
    let rd = flags land 0x0100 <> 0 in
    if Ctx.branch ctx Site.qr qr then () (* responses to us are dropped *)
    else begin
      (match opcode with
      | 0 -> Ctx.hit ctx Site.op_query
      | 1 -> Ctx.hit ctx Site.op_iquery
      | 2 -> Ctx.hit ctx Site.op_status
      | 4 -> Ctx.hit ctx Site.op_notify
      | 5 -> Ctx.hit ctx Site.op_update
      | _ -> Ctx.hit ctx Site.op_reserved);
      ignore (Ctx.branch ctx Site.rd rd);
      if Ctx.branch ctx Site.qd_none (qdcount = 0) then ()
      else if Ctx.branch ctx Site.qd_many (qdcount > 4) then
        (* dnsmasq rejects unreasonable question counts. *)
        reply (Bytes.of_string "\x00\x00\x80\x01")
      else begin
        let labels = parse_name ctx data 12 in
        (match labels with
        | 0 -> Ctx.hit ctx Site.root_query
        | 1 -> Ctx.hit ctx Site.single_label
        | _ when labels > 5 -> Ctx.hit ctx Site.deep_name
        | _ -> Ctx.hit ctx Site.multi_label);
        (* qtype sits after the name; rescan to find its position. *)
        let rec name_end pos =
          match Proto_util.byte_at data pos with
          | None -> pos
          | Some 0 -> pos + 1
          | Some len when len >= 0xC0 -> pos + 2
          | Some len -> name_end (pos + 1 + len)
        in
        let qpos = name_end 12 in
        let qtype = be qpos 2 in
        (match qtype with
        | 1 -> Ctx.hit ctx Site.qtype_a
        | 28 -> Ctx.hit ctx Site.qtype_aaaa
        | 15 -> Ctx.hit ctx Site.qtype_mx
        | 16 -> Ctx.hit ctx Site.qtype_txt
        | 12 -> Ctx.hit ctx Site.qtype_ptr
        | 33 -> Ctx.hit ctx Site.qtype_srv
        | 255 -> Ctx.hit ctx Site.qtype_any
        | _ -> Ctx.hit ctx Site.qtype_other);
        (* Answer: NOERROR with zero answers (we forward nothing). *)
        let resp = Bytes.make 12 '\000' in
        Bytes.set resp 0 (Char.chr ((id lsr 8) land 0xff));
        Bytes.set resp 1 (Char.chr (id land 0xff));
        Bytes.set resp 2 '\x80';
        Ctx.set_state ctx 1;
        reply resp
      end
    end
  end

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 53;
        proto = Nyx_netemu.Net.Udp;
        dissector = Nyx_pcap.Dissector.Datagram;
        startup_ns = 40_000_000;
        work_ns = 120_000;
        desock_compat = true;
        forking = false;
        max_recv = 512;
        dict = [ "\x00\x01"; "\x00\x0f"; "\x00\xff"; "\xc0\x0c" ];
      };
    hooks = { Target.default_hooks with global_state_size = 8; conn_state_size = 8; on_packet };
  }

let seeds =
  [
    [ make_query "router.local"; make_query ~qtype:28 "host.example.com" ];
    [ make_query ~qtype:12 "1.0.0.127.in-addr.arpa" ];
  ]
