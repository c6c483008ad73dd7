open Nyx_vm

let name = "dcmtk"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let elem_oversized = Ctx.edge_pair (site "elem:oversized")
  let elem_empty = Ctx.edge (site "elem:empty")
  let elem_small = Ctx.edge (site "elem:small")
  let elem_large = Ctx.edge (site "elem:large")
  let packet = Ctx.edge (site "packet")
  let short = Ctx.edge_pair (site "short")
  let len_exact = Ctx.edge_pair (site "len:exact")
  let pdu_associate_rq = Ctx.edge (site "pdu:associate-rq")
  let assoc_short = Ctx.edge_pair (site "assoc:short")
  let assoc_version = Ctx.edge_pair (site "assoc:version")
  let pdu_data = Ctx.edge (site "pdu:data")
  let data_unassociated = Ctx.edge_pair (site "data:unassociated")
  let data_multi = Ctx.edge_pair (site "data:multi")
  let pdu_release_rq = Ctx.edge (site "pdu:release-rq")
  let pdu_abort = Ctx.edge (site "pdu:abort")
  let pdu_server_only = Ctx.edge (site "pdu:server-only")
  let pdu_unknown = Ctx.edge (site "pdu:unknown")
end

(* PDU: type(1) reserved(1) length(4 BE) payload. *)
let make_pdu pdu_type payload =
  let buf = Buffer.create (6 + Bytes.length payload) in
  Buffer.add_char buf (Char.chr pdu_type);
  Buffer.add_char buf '\000';
  let len = Bytes.length payload in
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((len lsr (8 * i)) land 0xff))
  done;
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

let make_associate_rq () =
  let payload = Buffer.create 32 in
  Buffer.add_string payload "\x00\x01" (* protocol version *);
  Buffer.add_string payload "\x00\x00" (* reserved *);
  Buffer.add_string payload (Printf.sprintf "%-16s" "CALLED-AE");
  Buffer.add_string payload (Printf.sprintf "%-16s" "CALLING-AE");
  make_pdu 1 (Buffer.to_bytes payload)

let make_echo_data () =
  (* P-DATA with one element: tag(4) length(2 BE) value. *)
  let payload = Buffer.create 16 in
  Buffer.add_string payload "\x00\x08\x00\x18" (* tag *);
  Buffer.add_string payload "\x00\x04" (* element length *);
  Buffer.add_string payload "ECHO";
  make_pdu 4 (Buffer.to_bytes payload)

(* Connection state offsets. *)
let f_associated = 0
let f_pdus = 4
let f_corrupted = 8

(* How many silently corrupting executions one process survives without
   ASan before the heap metadata finally gives out. The counter lives in
   the spool file on the emulated disk: AFLNet-style cleanup scripts miss
   it, so corruption accumulates across their test cases, while whole-VM
   snapshots roll it back every execution (the Table 1 footnote). *)
let corruption_budget = 3

let spool_sector = 0

let read_corruption ctx =
  Char.code (Bytes.get (Nyx_vm.Disk.read_sector ctx.Ctx.disk spool_sector) 0)

let write_corruption ctx v =
  let sector = Bytes.make (Nyx_vm.Disk.sector_size ctx.Ctx.disk) '\000' in
  Bytes.set sector 0 (Char.chr (v land 0xff));
  Nyx_vm.Disk.write_sector ctx.Ctx.disk spool_sector sector

let parse_elements ctx ~conn ~buffer_addr payload =
  (* Copy the payload into a fixed 64-byte parse buffer, then walk data
     elements: tag(4) length(2) value. Oversized element lengths read past
     the buffer — the planted OOB. *)
  let heap = ctx.Ctx.heap in
  let copy_len = min (Bytes.length payload) 64 in
  Guest_heap.checked_set heap ~base:buffer_addr ~off:0 (Bytes.sub payload 0 copy_len);
  let pos = ref 4 (* skip tag of first element *) in
  let elements = ref 0 in
  let continue = ref true in
  while !continue && !pos + 2 <= copy_len do
    match Proto_util.read_be payload ~pos:!pos ~len:2 with
    | None -> continue := false
    | Some elen ->
      incr elements;
      if Ctx.branch ctx Site.elem_oversized (!pos + 2 + elen > 64) then begin
        (* Out-of-bounds read of the parse buffer. *)
        if ctx.Ctx.asan then
          ignore (Guest_heap.checked_get heap ~base:buffer_addr ~off:(!pos + 2) ~len:elen)
        else begin
          (* Silent corruption: at most one spool write per association,
             surviving until the budget is exhausted in this environment —
             or crashing outright on an unlucky layout. *)
          let corrupt =
            if Guest_heap.get_i32 heap (conn + f_corrupted) = 1 then read_corruption ctx
            else begin
              Guest_heap.set_i32 heap (conn + f_corrupted) 1;
              let c = read_corruption ctx + 1 in
              write_corruption ctx c;
              c
            end
          in
          if corrupt >= corruption_budget then
            Ctx.crash ctx ~kind:"heap-corruption"
              (Printf.sprintf "accumulated %d corrupting reads" corrupt);
          if ctx.Ctx.layout_cookie land 7 = 0 then
            Ctx.crash ctx ~kind:"segfault" "oversized element read crossed a guard page"
        end;
        continue := false
      end
      else begin
        (match elen with
        | 0 -> Ctx.hit ctx Site.elem_empty
        | n when n <= 4 -> Ctx.hit ctx Site.elem_small
        | _ -> Ctx.hit ctx Site.elem_large);
        pos := !pos + 2 + elen + 4 (* value + next tag *)
      end
  done;
  !elements

(* The parse buffer's guest address is stored in the global state block so
   each booted instance has its own (and it snapshots like everything
   else). *)
let g_buffer_addr = 4

let on_init ctx ~g =
  let addr = Guest_heap.alloc ctx.Ctx.heap 64 in
  Guest_heap.set_i32 ctx.Ctx.heap (g + g_buffer_addr) addr

let handle_pdu ctx ~g ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  if Ctx.branch ctx Site.short (Bytes.length data < 6) then ()
  else begin
    let pdu_type = Char.code (Bytes.get data 0) in
    let declared = Option.value ~default:0 (Proto_util.read_be data ~pos:2 ~len:4) in
    let payload_len = Bytes.length data - 6 in
    ignore (Ctx.branch ctx Site.len_exact (declared = payload_len));
    let payload = Bytes.sub data 6 payload_len in
    Guest_heap.set_i32 heap (conn + f_pdus) (Guest_heap.get_i32 heap (conn + f_pdus) + 1);
    match pdu_type with
    | 1 ->
      Ctx.hit ctx Site.pdu_associate_rq;
      if Ctx.branch ctx Site.assoc_short (payload_len < 36) then
        reply (make_pdu 3 (Bytes.of_string "\x00\x01")) (* reject *)
      else begin
        let version = Option.value ~default:0 (Proto_util.read_be payload ~pos:0 ~len:2) in
        if Ctx.branch ctx Site.assoc_version (version <> 1) then
          reply (make_pdu 3 (Bytes.of_string "\x00\x02"))
        else begin
          Guest_heap.set_i32 heap (conn + f_associated) 1;
          Ctx.set_state ctx 2;
          reply (make_pdu 2 (Bytes.of_string "\x00\x01\x00\x00accepted"))
        end
      end
    | 4 ->
      Ctx.hit ctx Site.pdu_data;
      if Ctx.branch ctx Site.data_unassociated
           (Guest_heap.get_i32 heap (conn + f_associated) = 0)
      then reply (make_pdu 7 Bytes.empty) (* abort *)
      else begin
        let buffer_addr = Guest_heap.get_i32 heap (g + g_buffer_addr) in
        let n = parse_elements ctx ~conn ~buffer_addr payload in
        ignore (Ctx.branch ctx Site.data_multi (n > 2));
        Ctx.set_state ctx 4;
        reply (make_pdu 4 (Bytes.of_string "\x00\x00"))
      end
    | 5 ->
      Ctx.hit ctx Site.pdu_release_rq;
      Guest_heap.set_i32 heap (conn + f_associated) 0;
      Ctx.set_state ctx 6;
      reply (make_pdu 6 Bytes.empty)
    | 7 -> Ctx.hit ctx Site.pdu_abort
    | 2 | 3 | 6 -> Ctx.hit ctx Site.pdu_server_only
    | _ -> Ctx.hit ctx Site.pdu_unknown
  end

(* A TCP read may contain several PDUs (or a partial one): walk them by
   the declared length, as the real DUL state machine does. *)
let on_packet ctx ~g ~conn ~reply data =
  Proto_util.iter_frames ~header_len:6
    ~frame_len:(fun h -> Option.map (fun l -> 6 + l) (Proto_util.read_be h ~pos:2 ~len:4))
    data
    (fun frame -> handle_pdu ctx ~g ~conn ~reply frame)

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 104;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Raw;
        startup_ns = 120_000_000;
        work_ns = 150_000;
        desock_compat = false;
        forking = false;
        max_recv = 8192;
        dict = [ "\x00\x01"; "\x00\x08\x00\x18" ];
      };
    hooks =
      {
        Target.default_hooks with
        global_state_size = 8;
        conn_state_size = 12;
        on_init;
        on_packet;
      };
  }

let seeds = [ [ make_associate_rq (); make_echo_data (); make_pdu 5 Bytes.empty ] ]
