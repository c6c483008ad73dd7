open Nyx_vm

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let verb = Ctx.edge "proftpd/SITE"
  let chmod = Ctx.edge "proftpd/SITE:chmod"
  let badmode = Ctx.edge "proftpd/SITE:badmode"
  let name_long = Ctx.edge_pair "proftpd/SITE:name-long"
  let have_files = Ctx.edge_pair "proftpd/SITE:have-files"
  let mode_range = Ctx.edge_pair "proftpd/SITE:mode-range"
  let chmod_arity = Ctx.edge "proftpd/SITE:chmod-arity"
  let help = Ctx.edge "proftpd/SITE:help"
  let unknown = Ctx.edge "proftpd/SITE:unknown"
end

let site_chmod (a : Ftp_common.special_args) =
  let { Ftp_common.ctx; g; conn = _; cmd; arg; reply } = a in
  if cmd <> "SITE" then false
  else begin
    Ctx.hit ctx Site.verb;
    let parts = Proto_util.tokens arg in
    match parts with
    | sub :: rest when Proto_util.upper sub = "CHMOD" -> (
      Ctx.hit ctx Site.chmod;
      match rest with
      | mode :: (_ :: _ as name_parts) -> (
        (* chmod modes are octal and parsed strtol-style: leading octal
           digits count, trailing junk is ignored. *)
        let octal_prefix =
          let n = ref 0 in
          (try
             String.iter (fun c -> if c >= '0' && c <= '7' then incr n else raise Exit) mode
           with Exit -> ());
          !n
        in
        match
          if octal_prefix = 0 then None
          else
            Proto_util.int_of_string_bounded ~max:0x3FFFFFFF
              ("0o" ^ String.sub mode 0 (min octal_prefix 10))
        with
        | None ->
          Ctx.hit ctx Site.badmode;
          reply (Bytes.of_string "501 bad mode\r\n");
          true
        | Some m ->
          let name = String.concat " " name_parts in
          ignore (Ctx.branch ctx Site.name_long (String.length name > 16));
          let stored = Guest_heap.get_i32 ctx.Ctx.heap (g + Ftp_common.Field.g_stored_count) in
          if Ctx.branch ctx Site.have_files (stored > 0) then begin
            (* The permissions table has 512 slots (mode 0..0777): larger
               modes index out of bounds while rewriting the uploaded
               file's entry. *)
            if Ctx.branch ctx Site.mode_range (m > 511) then
              Ctx.crash ctx ~kind:"heap-overflow"
                (Printf.sprintf "SITE CHMOD mode %d overflows permission table" m)
            else begin
              reply (Bytes.of_string "200 SITE CHMOD ok\r\n");
              true
            end
          end
          else begin
            reply (Bytes.of_string "550 no files uploaded\r\n");
            true
          end)
      | _ ->
        Ctx.hit ctx Site.chmod_arity;
        reply (Bytes.of_string "501 bad arguments\r\n");
        true)
    | sub :: _ when Proto_util.upper sub = "HELP" ->
      Ctx.hit ctx Site.help;
      reply (Bytes.of_string "214 CHMOD HELP\r\n");
      true
    | _ ->
      Ctx.hit ctx Site.unknown;
      reply (Bytes.of_string "500 SITE not understood\r\n");
      true
  end

let config =
  {
    Ftp_common.name = "proftpd";
    banner = "220 ProFTPD Server ready";
    require_auth = true;
    commands = Ftp_common.standard_commands;
    special = Some site_chmod;
  }

let target =
  {
    Target.info =
      {
        Target.name = "proftpd";
        role = Target.Server;
        port = 2100;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Crlf;
        startup_ns = 150_000_000;
        work_ns = 550_000;
        desock_compat = false;
        forking = false;
        max_recv = 1024;
        dict = [ "USER"; "PASS"; "STOR"; "RETR"; "SITE"; "CHMOD"; "777"; "RNFR"; "RNTO"; "REST" ];
      };
    hooks = Ftp_common.hooks config;
  }

let seeds =
  [
    List.map Bytes.of_string
      [
        "USER fuzz\r\n"; "PASS fuzz\r\n"; "STOR upload.txt\r\n";
        "SITE CHMOD 644 upload.txt\r\n"; "QUIT\r\n";
      ];
    List.map Bytes.of_string Ftp_common.sample_session;
  ]
