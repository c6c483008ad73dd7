open Nyx_vm

let name = "echo"
let site s = name ^ "/" ^ s
let keyword = "BOOM"

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let packet = Ctx.edge (site "packet")
  let cmd_mode = Ctx.edge_pair (site "cmd:mode")
  let mode_raw = Ctx.edge_pair (site "mode:raw")
  let len_big = Ctx.edge_pair (site "len:big")

  (* One branch per keyword character: boom:0 .. boom:3. *)
  let boom =
    Array.init (String.length keyword) (fun i ->
        Ctx.edge_pair (site (Printf.sprintf "boom:%d" i)))
end

let f_mode = 0 (* 0 = line mode, 1 = raw mode *)

let on_packet ctx ~g:_ ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  let line = Proto_util.line_of data in
  if Ctx.branch ctx Site.cmd_mode (Proto_util.starts_with_ci ~prefix:"MODE " line)
  then begin
    let arg = String.sub line 5 (String.length line - 5) in
    if Ctx.branch ctx Site.mode_raw (Proto_util.upper arg = "RAW") then begin
      Guest_heap.set_i32 heap (conn + f_mode) 1;
      reply (Bytes.of_string "mode: raw\r\n")
    end
    else begin
      Guest_heap.set_i32 heap (conn + f_mode) 0;
      reply (Bytes.of_string "mode: line\r\n")
    end
  end
  else if
    (* Character-by-character keyword match: each prefix is its own branch,
       so coverage-guided fuzzers ratchet towards the full keyword. *)
    Guest_heap.get_i32 heap (conn + f_mode) = 1
    && (let rec matches i =
          i >= String.length keyword
          || Ctx.branch ctx Site.boom.(i)
               (String.length line > i && Char.uppercase_ascii line.[i] = keyword.[i])
             && matches (i + 1)
        in
        matches 0)
  then Ctx.crash ctx ~kind:"assertion" "BOOM in raw mode"
  else begin
    ignore (Ctx.branch ctx Site.len_big (String.length line > 64));
    reply data
  end

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 7;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Crlf;
        startup_ns = 5_000_000;
        work_ns = 50_000;
        desock_compat = true;
        forking = false;
        max_recv = 512;
        dict = [ "MODE"; "raw"; "BOOM" ];
      };
    hooks = { Target.default_hooks with conn_state_size = 4; on_packet };
  }

let seeds = [ List.map Bytes.of_string [ "MODE raw\r\n"; "hello world\r\n" ] ]
