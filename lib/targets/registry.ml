(* Domain-safety invariant (audited for nyx_parallel): this module and
   every target it lists hold no toplevel mutable state. [Target.t] is a
   record of immutable info plus hook closures whose state lives in the
   per-campaign [Ctx.t]/guest heap, and the toplevel seed [bytes] are
   only ever read (mutators copy before editing, the net layer copies on
   send), so entries may be shared freely across domains. Keep it that
   way: new targets must allocate their state through the hooks' [Ctx.t],
   never in module-level refs/tables, nor in refs that a target-building
   function captures in its hook closures: every campaign of an entry
   shares those closures. The domain-safety lint scans only top-level
   bindings, so it cannot see the second kind; a Mario target once kept
   its booted game in such a ref, and fleet instances on different
   domains overwrote each other's game. *)

type entry = { target : Target.t; seeds : bytes list list }

let profuzzbench () =
  [
    { target = Bftpd.target; seeds = Bftpd.seeds };
    { target = Dcmtk.target; seeds = Dcmtk.seeds };
    { target = Dnsmasq.target; seeds = Dnsmasq.seeds };
    { target = Exim.target; seeds = Exim.seeds };
    { target = Daapd.target; seeds = Daapd.seeds };
    { target = Kamailio.target; seeds = Kamailio.seeds };
    { target = Lightftp.target; seeds = Lightftp.seeds };
    { target = Live555.target; seeds = Live555.seeds };
    { target = Openssh.target; seeds = Openssh.seeds };
    { target = Openssl_srv.target; seeds = Openssl_srv.seeds };
    { target = Proftpd.target; seeds = Proftpd.seeds };
    { target = Pure_ftpd.target; seeds = Pure_ftpd.seeds };
    { target = Tinydtls.target; seeds = Tinydtls.seeds };
  ]

let all () =
  profuzzbench ()
  @ [
      { target = Echo.target; seeds = Echo.seeds };
      { target = Ipc.target; seeds = Ipc.seeds };
      { target = Mysql_client.target; seeds = Mysql_client.seeds };
      { target = Lighttpd.target; seeds = Lighttpd.seeds };
    ]

let find name =
  List.find_opt (fun e -> e.target.Target.info.Target.name = name) (all ())

let seed_capture entry =
  List.concat
    (List.mapi
       (fun stream packets ->
         List.mapi
           (fun i payload ->
             {
               Nyx_pcap.Capture.stream;
               dir = Nyx_pcap.Capture.To_server;
               ts_us = i * 1000;
               payload;
             })
           packets)
       entry.seeds)
  |> List.fold_left Nyx_pcap.Capture.add Nyx_pcap.Capture.empty

(* Each seed session becomes its own program so the corpus starts with one
   entry per canned session. *)
let seed_programs entry net_spec =
  let dissector = entry.target.Target.info.Target.dissector in
  List.map
    (fun packets ->
      let cap = Target.sample_capture_of_packets packets in
      Nyx_pcap.Importer.to_seed net_spec dissector cap)
    entry.seeds
