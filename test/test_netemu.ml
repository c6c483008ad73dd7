open Nyx_netemu

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let b = Bytes.of_string

let mk ?backend ?boundaries () =
  let clock = Nyx_sim.Clock.create () in
  (Net.create ?backend ?boundaries clock, clock)

(* A listening TCP server socket plus one accepted connection. *)
let with_tcp_conn ?boundaries () =
  let net, clock = mk ?boundaries () in
  let lfd = Net.socket net Net.Tcp in
  Net.bind net lfd 8080;
  Net.listen net lfd;
  let flow = Option.get (Net.connect_peer net ~port:8080) in
  let cfd =
    match Net.poll net with
    | Some (`Accept fd) -> Net.accept net fd
    | _ -> Alcotest.fail "expected accept readiness"
  in
  (net, clock, lfd, cfd, flow)

let test_lifecycle () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "hello");
  (match Net.poll net with
  | Some (`Read fd) -> check_int "readable fd" cfd fd
  | _ -> Alcotest.fail "expected read readiness");
  check_str "payload" "hello" (Bytes.to_string (Net.recv net cfd ~max:100));
  Alcotest.(check bool) "quiesced" true (Net.poll net = None)

let test_connection_refused () =
  let net, _ = mk () in
  Alcotest.(check (option int)) "no listener" None (Net.connect_peer net ~port:9);
  (* A UDP-bound port refuses TCP connects. *)
  let ufd = Net.socket net Net.Udp in
  Net.bind net ufd 53;
  Alcotest.(check (option int)) "udp port refuses tcp" None (Net.connect_peer net ~port:53)

let test_packet_boundaries_preserved () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "AAAA");
  Net.send_peer net flow (b "BBBB");
  (* One recv never crosses a packet boundary, even with room to spare. *)
  check_str "first packet only" "AAAA" (Bytes.to_string (Net.recv net cfd ~max:100));
  check_str "second packet" "BBBB" (Bytes.to_string (Net.recv net cfd ~max:100))

let test_stream_mode_coalesces () =
  let net, _, _, cfd, flow = with_tcp_conn ~boundaries:false () in
  Net.send_peer net flow (b "AAAA");
  Net.send_peer net flow (b "BBBB");
  check_str "stream coalesced" "AAAABBBB" (Bytes.to_string (Net.recv net cfd ~max:100))

let test_partial_reads () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "ABCDEFGH");
  check_str "first chunk" "ABC" (Bytes.to_string (Net.recv net cfd ~max:3));
  check_str "second chunk" "DEF" (Bytes.to_string (Net.recv net cfd ~max:3));
  check_str "tail" "GH" (Bytes.to_string (Net.recv net cfd ~max:3))

let test_empty_send_dropped () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow Bytes.empty;
  Alcotest.(check bool) "no readiness from empty send" true (Net.poll net = None);
  Net.send_peer net flow (b "X");
  check_str "later data intact" "X" (Bytes.to_string (Net.recv net cfd ~max:10))

let test_eof_on_peer_close () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "last");
  Net.close_peer net flow;
  check_str "queued data first" "last" (Bytes.to_string (Net.recv net cfd ~max:100));
  (match Net.poll net with
  | Some (`Read _) -> ()
  | _ -> Alcotest.fail "EOF must be reported as readability");
  check_str "then EOF" "" (Bytes.to_string (Net.recv net cfd ~max:100))

let test_would_block () =
  let net, _, _, cfd, _ = with_tcp_conn () in
  Alcotest.check_raises "recv on empty open socket" (Net.Would_block cfd) (fun () ->
      ignore (Net.recv net cfd ~max:10))

let test_responses_drained () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  ignore (Net.send net cfd (b "r1"));
  ignore (Net.send net cfd (b "r2"));
  Alcotest.(check (list string)) "responses in order" [ "r1"; "r2" ]
    (List.map Bytes.to_string (Net.responses net flow));
  Alcotest.(check (list string)) "drained" [] (List.map Bytes.to_string (Net.responses net flow))

let test_dup_refcount () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  let dup_fd = Net.dup net cfd in
  Net.close net cfd;
  (* The socket lives on through the dup. *)
  Net.send_peer net flow (b "via-dup");
  check_str "readable via dup" "via-dup" (Bytes.to_string (Net.recv net dup_fd ~max:100));
  Net.close net dup_fd;
  Alcotest.check_raises "socket gone after last close"
    (Invalid_argument "Net: unknown flow 1") (fun () ->
      Net.send_peer net flow (b "x"))

let test_fork_shares_fds () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  check_int "two processes" 2 (Net.fork net);
  (* Parent closes: the child's inherited reference keeps both the fd
     number and the socket alive. *)
  Net.close net cfd;
  Net.send_peer net flow (b "to-child");
  (match Net.poll net with
  | Some (`Read fd) ->
    check_int "same fd visible to child" cfd fd;
    Alcotest.(check string) "data delivered" "to-child"
      (Bytes.to_string (Net.recv net fd ~max:100))
  | _ -> Alcotest.fail "expected readability in child");
  (* The child's close is the last reference: now the socket dies. *)
  Net.close net cfd;
  Alcotest.check_raises "socket gone" (Invalid_argument "Net: unknown flow 1") (fun () ->
      Net.send_peer net flow (b "x"))

let test_udp_flows () =
  let net, _ = mk () in
  let ufd = Net.socket net Net.Udp in
  Net.bind net ufd 53;
  let fl1 = Option.get (Net.udp_send_peer net ~port:53 (b "query1")) in
  let fl2 = Option.get (Net.udp_send_peer net ~port:53 (b "query2")) in
  Alcotest.(check bool) "distinct flows" true (fl1 <> fl2);
  let d1, from1 = Net.recvfrom net ufd ~max:100 in
  check_str "first datagram" "query1" (Bytes.to_string d1);
  check_int "from first flow" fl1 from1;
  (* Reply goes to the most recent sender by default. *)
  ignore (Net.send net ufd (b "resp1"));
  Alcotest.(check (list string)) "reply routed" [ "resp1" ]
    (List.map Bytes.to_string (Net.responses net fl1));
  let _, from2 = Net.recvfrom net ufd ~max:100 in
  check_int "second flow" fl2 from2;
  ignore (Net.sendto net ufd fl2 (b "resp2"));
  Alcotest.(check (list string)) "sendto routed" [ "resp2" ]
    (List.map Bytes.to_string (Net.responses net fl2))

let test_udp_datagram_truncation () =
  let net, _ = mk () in
  let ufd = Net.socket net Net.Udp in
  Net.bind net ufd 53;
  ignore (Net.udp_send_peer net ~port:53 (b "0123456789"));
  let d, _ = Net.recvfrom net ufd ~max:4 in
  check_str "truncated" "0123" (Bytes.to_string d);
  (* The tail is gone, as UDP discards it. *)
  Alcotest.(check bool) "tail discarded" true (Net.poll net = None)

let test_listening_ports () =
  let net, _ = mk () in
  let t = Net.socket net Net.Tcp in
  Net.bind net t 21;
  Net.listen net t;
  let u = Net.socket net Net.Udp in
  Net.bind net u 53;
  Alcotest.(check (list (pair int bool))) "surface"
    [ (21, true); (53, false) ]
    (List.map (fun (p, proto) -> (p, proto = Net.Tcp)) (Net.listening_ports net))

let test_costs_differ_by_backend () =
  let run backend =
    let net, clock = mk ~backend () in
    let lfd = Net.socket net Net.Tcp in
    Net.bind net lfd 8080;
    Net.listen net lfd;
    let fl = Option.get (Net.connect_peer net ~port:8080) in
    Net.send_peer net fl (b "data");
    Nyx_sim.Clock.now_ns clock
  in
  let emulated = run Net.Emulated and real = run Net.Real in
  Alcotest.(check bool)
    (Printf.sprintf "real (%d) >> emulated (%d)" real emulated)
    true
    (real > 20 * emulated)

let test_snapshot_roundtrip () =
  let clock = Nyx_sim.Clock.create () in
  let net = Net.create clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  Net.register_aux net aux;
  let lfd = Net.socket net Net.Tcp in
  Net.bind net lfd 8080;
  Net.listen net lfd;
  let cap = Nyx_snapshot.Aux_state.capture aux clock in
  (* Mutate heavily: connect, transfer, close the listener. *)
  let fl = Option.get (Net.connect_peer net ~port:8080) in
  (match Net.poll net with
  | Some (`Accept fd) ->
    let cfd = Net.accept net fd in
    Net.send_peer net fl (b "x");
    ignore (Net.recv net cfd ~max:10);
    Net.close net cfd
  | _ -> Alcotest.fail "expected accept");
  Net.close net lfd;
  Alcotest.(check (list (pair int bool))) "listener gone" []
    (List.map (fun (p, _) -> (p, true)) (Net.listening_ports net));
  (* Restore: pristine listening state, flow gone. *)
  Nyx_snapshot.Aux_state.restore aux clock cap;
  check_int "one socket again" 1 (Net.open_socket_count net);
  Alcotest.(check bool) "listening again" true (Net.listening_ports net = [ (8080, Net.Tcp) ]);
  Alcotest.(check bool) "can connect again" true (Net.connect_peer net ~port:8080 <> None)


(* Extended hook surface *)

let test_shutdown_write () =
  let net, _, _, cfd, _ = with_tcp_conn () in
  Net.shutdown net cfd `Write;
  Alcotest.check_raises "EPIPE after write shutdown"
    (Invalid_argument "Net.send: socket shut down for writing (EPIPE)") (fun () ->
      ignore (Net.send net cfd (b "x")))

let test_shutdown_read () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "queued");
  Net.shutdown net cfd `Read;
  (* Queued input is discarded and the next read is EOF. *)
  check_str "eof" "" (Bytes.to_string (Net.recv net cfd ~max:10));
  (* Writing still works after a read-side shutdown. *)
  ignore (Net.send net cfd (b "still-writable"))

let test_peek_does_not_consume () =
  let net, _, _, cfd, flow = with_tcp_conn () in
  Net.send_peer net flow (b "hello");
  check_str "peek sees data" "hel" (Bytes.to_string (Net.peek net cfd ~max:3));
  check_str "peek again" "hello" (Bytes.to_string (Net.peek net cfd ~max:10));
  check_str "recv still gets it" "hello" (Bytes.to_string (Net.recv net cfd ~max:10));
  Alcotest.check_raises "now empty" (Net.Would_block cfd) (fun () ->
      ignore (Net.peek net cfd ~max:4))


let test_connect_out () =
  let net, _ = mk () in
  let fd = Net.socket net Net.Tcp in
  let flow = Net.connect_out net fd ~port:3306 in
  Alcotest.(check (list int)) "outbound flow visible" [ flow ] (Net.outbound_flows net);
  Alcotest.(check (option int)) "peer known" (Some flow) (Net.getpeername net fd);
  (* The fuzzer (playing the server) injects a packet; the client reads it. *)
  Net.send_peer net flow (b "greeting");
  check_str "client receives" "greeting" (Bytes.to_string (Net.recv net fd ~max:100));
  (* The client replies; the fuzzer drains it. *)
  ignore (Net.send net fd (b "login"));
  Alcotest.(check (list string)) "reply visible to fuzzer" [ "login" ]
    (List.map Bytes.to_string (Net.responses net flow));
  Alcotest.check_raises "double connect"
    (Invalid_argument "Net.connect_out: already connected") (fun () ->
      ignore (Net.connect_out net fd ~port:3307))

let test_names_and_options () =
  let net, _, lfd, cfd, flow = with_tcp_conn () in
  check_int "listener bound port" 8080 (Net.getsockname net lfd);
  Alcotest.(check (option int)) "conn peer flow" (Some flow) (Net.getpeername net cfd);
  Alcotest.(check (option int)) "listener has no peer" None (Net.getpeername net lfd);
  check_int "option default" 0 (Net.getsockopt net lfd "SO_REUSEADDR");
  Net.setsockopt net lfd "SO_REUSEADDR" 1;
  Net.setsockopt net lfd "TCP_NODELAY" 1;
  Net.setsockopt net lfd "SO_REUSEADDR" 0;
  check_int "last write wins" 0 (Net.getsockopt net lfd "SO_REUSEADDR");
  check_int "other option kept" 1 (Net.getsockopt net lfd "TCP_NODELAY")

(* Poll order: the ready socket with the lowest sid that some fd refers
   to, reported on its lowest fd; a ready connection no fd refers to yet
   is skipped. *)
let test_poll_order () =
  let net, _ = mk () in
  let listen port =
    let fd = Net.socket net Net.Tcp in
    Net.bind net fd port;
    Net.listen net fd;
    fd
  in
  let l21 = listen 21 and l80 = listen 80 in
  let early = Option.get (Net.connect_peer net ~port:21) in
  let late = Option.get (Net.connect_peer net ~port:80) in
  let expect what ev = Alcotest.(check bool) what true (Net.poll net = ev) in
  expect "lowest listener first" (Some (`Accept l21));
  let c80 = Net.accept net l80 in
  Net.send_peer net early (b "x");
  Net.send_peer net late (b "y");
  expect "listener below the readable connection" (Some (`Accept l21));
  Net.close net l21;
  (* [early] is orphaned: ready, lower sid than [late], but fd-less. *)
  expect "fd-less socket skipped" (Some (`Read c80));
  let hi = Net.dup net c80 in
  Net.close net c80;
  expect "reported on a remaining fd" (Some (`Read hi));
  ignore (Net.dup net hi);
  expect "lowest fd of the socket" (Some (`Read hi));
  ignore (Net.recv net hi ~max:8);
  expect "nothing left that an fd reaches" None

(* Golden trace: a fixed-seed walk of 20,000 random operations over the
   public API, with aux-state captures and restores at random points.
   Every observable result is folded into one digest: poll order, fd and
   flow numbering, received and sent bytes, the captured images' sizes
   and fuzzy hashes, and what each restore brings back. The digest was
   recorded before poll and restore were rewritten. *)
let golden_trace () =
  let module Rng = Nyx_sim.Rng in
  let rng = Rng.create 20_211 in
  let clock = Nyx_sim.Clock.create () in
  let net = Net.create clock in
  let aux = Nyx_snapshot.Aux_state.create () in
  Net.register_aux net aux;
  let out = Buffer.create (1 lsl 20) in
  let note fmt = Printf.bprintf out fmt in
  let fds = ref [] and flows = ref [] and caps = ref [] in
  let top_fd = ref 3 and top_flow = ref 1 in
  let ports = [| 21; 80; 5060; 9000 |] in
  let options = [| "SO_REUSEADDR"; "TCP_NODELAY"; "SO_RCVBUF" |] in
  (* Mostly a recent handle; sometimes any number issued so far, so old
     listeners get closed and their backlogs orphaned. *)
  let some_fd () =
    if !fds = [] || Rng.int rng 4 = 0 then Rng.int rng (!top_fd + 2)
    else Rng.choose_list rng !fds
  in
  let some_flow () =
    if !flows = [] || Rng.int rng 4 = 0 then Rng.int rng (!top_flow + 2)
    else Rng.choose_list rng !flows
  in
  let keep x l = List.filteri (fun i _ -> i < 12) (x :: l) in
  let add_fd fd =
    top_fd := max !top_fd fd;
    fds := keep fd !fds
  in
  let add_flow = function
    | Some fl ->
      top_flow := max !top_flow fl;
      flows := keep fl !flows
    | None -> ()
  in
  let payload () = Rng.bytes rng (Rng.int rng 12) in
  let note_bytes tag data = note "%s %S\n" tag (Bytes.to_string data) in
  let flow_opt = function Some fl -> string_of_int fl | None -> "-" in
  let guard tag f =
    try f () with
    | Net.Would_block fd -> note "%s would-block %d\n" tag fd
    | Net.Bad_fd fd -> note "%s bad-fd %d\n" tag fd
    | Invalid_argument m -> note "%s invalid %s\n" tag m
  in
  let poll_and_serve () =
    match Net.poll net with
    | None -> note "poll none\n"
    | Some (`Accept fd) ->
      note "poll accept %d\n" fd;
      if Rng.int rng 4 > 0 then begin
        let cfd = Net.accept net fd in
        note "accepted %d\n" cfd;
        add_fd cfd
      end
    | Some (`Read fd) -> (
      note "poll read %d\n" fd;
      match Rng.int rng 3 with
      | 0 -> note_bytes "recv" (Net.recv net fd ~max:(1 + Rng.int rng 16))
      | 1 ->
        let data, fl = Net.recvfrom net fd ~max:(1 + Rng.int rng 16) in
        note_bytes (Printf.sprintf "recvfrom %d" fl) data
      | _ -> ())
  in
  for _ = 1 to 20_000 do
    match Rng.int rng 20 with
    | 0 ->
      guard "socket" (fun () ->
          let proto = Rng.choose rng [| Net.Tcp; Net.Udp; Net.Unix_sock |] in
          let fd = Net.socket net proto in
          note "socket %d\n" fd;
          add_fd fd;
          Net.bind net fd (Rng.choose rng ports);
          if proto <> Net.Udp then Net.listen net fd)
    | 1 ->
      let fl = Net.connect_peer net ~port:(Rng.choose rng ports) in
      note "connect %s\n" (flow_opt fl);
      add_flow fl
    | 2 | 3 -> guard "send_peer" (fun () -> Net.send_peer net (some_flow ()) (payload ()))
    | 4 ->
      let flow = if Rng.bool rng then Some (some_flow ()) else None in
      let fl = Net.udp_send_peer net ~port:(Rng.choose rng ports) ?flow (payload ()) in
      note "udp %s\n" (flow_opt fl);
      add_flow fl
    | 5 -> guard "close_peer" (fun () -> Net.close_peer net (some_flow ()))
    | 6 | 7 | 8 -> guard "poll" poll_and_serve
    | 9 ->
      guard "recv" (fun () ->
          note_bytes "recv" (Net.recv net (some_fd ()) ~max:(1 + Rng.int rng 16)))
    | 10 ->
      guard "peek" (fun () ->
          note_bytes "peek" (Net.peek net (some_fd ()) ~max:(1 + Rng.int rng 16)))
    | 11 ->
      guard "send" (fun () ->
          let fd = some_fd () in
          let n =
            if Rng.bool rng then Net.send net fd (payload ())
            else Net.sendto net fd (some_flow ()) (payload ())
          in
          note "sent %d\n" n)
    | 12 -> guard "close" (fun () -> Net.close net (some_fd ()))
    | 13 ->
      guard "dup" (fun () ->
          let fd = Net.dup net (some_fd ()) in
          note "dup %d\n" fd;
          add_fd fd)
    | 14 ->
      guard "shutdown" (fun () ->
          Net.shutdown net (some_fd ()) (Rng.choose rng [| `Read; `Write; `Both |]))
    | 15 ->
      guard "responses" (fun () ->
          let fl = some_flow () in
          List.iter (note_bytes (Printf.sprintf "response %d" fl)) (Net.responses net fl))
    | 16 ->
      let cap = Nyx_snapshot.Aux_state.capture aux clock in
      note "capture %d %d\n"
        (Nyx_snapshot.Aux_state.size_bytes cap)
        (Nyx_snapshot.Aux_state.fuzzy_hash cap);
      caps := List.filteri (fun i _ -> i < 3) (cap :: !caps)
    | 17 ->
      if !caps <> [] then begin
        Nyx_snapshot.Aux_state.restore aux clock (Rng.choose_list rng !caps);
        note "restore %d %d\n" (Net.open_socket_count net) (Net.syscall_count net)
      end
    | 18 ->
      if Rng.int rng 8 = 0 then note "fork %d\n" (Net.fork net)
      else
        guard "connect_out" (fun () ->
            let fl = Net.connect_out net (some_fd ()) ~port:(Rng.choose rng ports) in
            note "connect_out %d\n" fl;
            add_flow (Some fl))
    | _ ->
      guard "options" (fun () ->
          let fd = some_fd () and name = Rng.choose rng options in
          if Rng.bool rng then Net.setsockopt net fd name (Rng.int rng 4)
          else
            note "opt %d %s %d %s\n" (Net.getsockopt net fd name)
              (flow_opt (Net.getpeername net fd))
              (Net.getsockname net fd) name)
  done;
  List.iter (fun (p, _) -> note "listening %d\n" p) (Net.listening_ports net);
  List.iter (note "outbound %d\n") (Net.outbound_flows net);
  note "clock %d sockets %d syscalls %d\n" (Nyx_sim.Clock.now_ns clock) (Net.open_socket_count net)
    (Net.syscall_count net);
  Digest.to_hex (Digest.string (Buffer.contents out))

let test_golden_trace () =
  check_str "trace digest" "c43bb2a151b98f2e04526b5e6ad2ac73" (golden_trace ())

(* domain-safe: qcheck property closure, run on a single domain *)
let prop_boundary_sequence =
  QCheck.Test.make ~name:"packet sequence is received intact and in order" ~count:100
    QCheck.(small_list (string_of_size QCheck.Gen.(int_range 1 32)))
    (fun packets ->
      let net, _, _, cfd, flow = with_tcp_conn () in
      List.iter (fun p -> Net.send_peer net flow (Bytes.of_string p)) packets;
      let received = ref [] in
      (try
         while true do
           received := Bytes.to_string (Net.recv net cfd ~max:64) :: !received
         done
       with Net.Would_block _ -> ());
      List.rev !received = packets)

let () =
  Alcotest.run "nyx_netemu"
    [
      ( "tcp",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "refused" `Quick test_connection_refused;
          Alcotest.test_case "boundaries" `Quick test_packet_boundaries_preserved;
          Alcotest.test_case "stream mode" `Quick test_stream_mode_coalesces;
          Alcotest.test_case "partial reads" `Quick test_partial_reads;
          Alcotest.test_case "empty send" `Quick test_empty_send_dropped;
          Alcotest.test_case "eof" `Quick test_eof_on_peer_close;
          Alcotest.test_case "would block" `Quick test_would_block;
          Alcotest.test_case "responses" `Quick test_responses_drained;
          QCheck_alcotest.to_alcotest prop_boundary_sequence;
        ] );
      ( "fd table",
        [
          Alcotest.test_case "dup refcount" `Quick test_dup_refcount;
          Alcotest.test_case "fork shares" `Quick test_fork_shares_fds;
        ] );
      ( "udp",
        [
          Alcotest.test_case "flows" `Quick test_udp_flows;
          Alcotest.test_case "truncation" `Quick test_udp_datagram_truncation;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "shutdown write" `Quick test_shutdown_write;
          Alcotest.test_case "shutdown read" `Quick test_shutdown_read;
          Alcotest.test_case "peek" `Quick test_peek_does_not_consume;
          Alcotest.test_case "names and options" `Quick test_names_and_options;
          Alcotest.test_case "connect out" `Quick test_connect_out;
        ] );
      ( "misc",
        [
          Alcotest.test_case "listening ports" `Quick test_listening_ports;
          Alcotest.test_case "backend costs" `Quick test_costs_differ_by_backend;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "poll order" `Quick test_poll_order;
          Alcotest.test_case "golden trace" `Quick test_golden_trace;
        ] );
    ]
