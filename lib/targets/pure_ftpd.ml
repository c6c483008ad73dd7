open Nyx_vm

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let quota = Ctx.edge_pair "pure-ftpd/quota"
end

let quota_limit = 20

let quota_check (a : Ftp_common.special_args) =
  let { Ftp_common.ctx; g; cmd; _ } = a in
  (* Observe, never handle: the generic STOR handler still runs. *)
  if cmd = "STOR" || cmd = "APPE" then begin
    let stored = Guest_heap.get_i32 ctx.Ctx.heap (g + Ftp_common.Field.g_stored_count) in
    if Ctx.branch ctx Site.quota (stored >= quota_limit) then
      Ctx.crash ctx ~kind:"oom-internal"
        (Printf.sprintf "upload quota bookkeeping exhausted after %d files" stored)
  end;
  false

let config =
  {
    Ftp_common.name = "pure-ftpd";
    banner = "220 Pure-FTPd ready";
    require_auth = true;
    commands = Ftp_common.standard_commands;
    special = Some quota_check;
  }

let target =
  {
    Target.info =
      {
        Target.name = "pure-ftpd";
        role = Target.Server;
        port = 2101;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Crlf;
        startup_ns = 50_000_000;
        work_ns = 250_000;
        desock_compat = false;
        forking = false;
        max_recv = 1024;
        dict = [ "USER"; "PASS"; "STOR"; "APPE"; "MKD"; "DELE" ];
      };
    hooks = Ftp_common.hooks config;
  }

let seeds =
  [
    List.map Bytes.of_string
      [ "USER fuzz\r\n"; "PASS fuzz\r\n"; "STOR a.txt\r\n"; "RETR a.txt\r\n"; "QUIT\r\n" ];
  ]
