open Nyx_vm

let name = "lighttpd"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let chunk_no_header_end = Ctx.edge (site "chunk:no-header-end")
  let chunk_extension = Ctx.edge (site "chunk:extension")
  let chunk_bad_size = Ctx.edge (site "chunk:bad-size")
  let chunk_final = Ctx.edge (site "chunk:final")
  let chunk_absurd_size = Ctx.edge (site "chunk:absurd-size")
  let chunk_partial = Ctx.edge_pair (site "chunk:partial")
  let chunk_underflow = Ctx.edge_pair (site "chunk:underflow")
  let packet = Ctx.edge (site "packet")
  let empty = Ctx.edge (site "empty")
  let http11 = Ctx.edge_pair (site "http11")
  let te_chunked = Ctx.edge_pair (site "te:chunked")
  let te_other = Ctx.edge (site "te:other")
  let conn_keepalive = Ctx.edge_pair (site "conn:keepalive")
  let cl_ok = Ctx.edge (site "cl:ok")
  let cl_bad = Ctx.edge (site "cl:bad")
  let route_traversal = Ctx.edge_pair (site "route:traversal")
  let route_miss = Ctx.edge (site "route:miss")
  let chunks_multi = Ctx.edge_pair (site "chunks:multi")
  let method_options = Ctx.edge (site "method:options")
  let method_other = Ctx.edge (site "method:other")
  let reqline_malformed = Ctx.edge (site "reqline:malformed")
end

(* Connection state. *)
let f_requests = 0
let f_keepalive = 4

let routes = [ "/"; "/index.html"; "/cgi-bin/test"; "/status"; "/favicon.ico" ]

let respond reply code reason body =
  reply
    (Bytes.of_string
       (Printf.sprintf "HTTP/1.1 %d %s\r\nServer: lighttpd-sim\r\nContent-Length: %d\r\n\r\n%s"
          code reason (String.length body) body))

(* Chunked-body decoding: each chunk is "<hex-size>\r\n<data>\r\n". The
   buffer-resize computation subtracts what is already buffered from the
   declared chunk size without checking for underflow — the §5.5 bug. *)
let decode_chunked ctx body =
  let len = String.length body in
  let rec next pos chunks =
    if pos >= len then chunks
    else begin
      match String.index_from_opt body pos '\n' with
      | None ->
        Ctx.hit ctx Site.chunk_no_header_end;
        chunks
      | Some nl ->
        let header = String.trim (String.sub body pos (nl - pos)) in
        (* Strip chunk extensions. *)
        let header =
          match String.index_opt header ';' with
          | Some i ->
            Ctx.hit ctx Site.chunk_extension;
            String.sub header 0 i
          | None -> header
        in
        (match int_of_string_opt ("0x" ^ header) with
        | None ->
          Ctx.hit ctx Site.chunk_bad_size;
          chunks
        | Some 0 ->
          Ctx.hit ctx Site.chunk_final;
          chunks
        | Some size when size < 0 || size > 0x100000 ->
          Ctx.hit ctx Site.chunk_absurd_size;
          chunks
        | Some size ->
          let data_start = nl + 1 in
          let buffered = len - data_start in
          ignore (Ctx.branch ctx Site.chunk_partial (buffered < size));
          (* The resize: needed = size - buffered, allocated without a
             sign check. A chunk header promising more than the declared
             request leaves 'needed' dominated by attacker data; crafted
             sizes drive the allocation negative. *)
          let needed = size - buffered in
          if Ctx.branch ctx Site.chunk_underflow (needed > 0 && buffered > 0 && size > 255)
          then
            Ctx.crash ctx ~kind:"alloc-underflow"
              (Printf.sprintf
                 "chunk of %d bytes with %d buffered: resize allocates %d (wraps negative as size_t arithmetic)"
                 size buffered (buffered - size));
          next (data_start + size + 2) (chunks + 1))
    end
  in
  next 0 0

let on_packet ctx ~g:_ ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  Guest_heap.set_i32 heap (conn + f_requests)
    (Guest_heap.get_i32 heap (conn + f_requests) + 1);
  let text = Bytes.to_string data in
  let head, body =
    match Proto_util.find_blank_line text with
    | Some i -> (String.sub text 0 i, String.sub text i (String.length text - i))
    | None -> (text, "")
  in
  let lines = String.split_on_char '\n' head |> List.map String.trim in
  match lines with
  | [] -> Ctx.hit ctx Site.empty
  | request_line :: headers -> (
    match Proto_util.tokens request_line with
    | [ meth; path; version ] -> (
      let meth = Proto_util.upper meth in
      ignore (Ctx.branch ctx Site.http11 (version = "HTTP/1.1"));
      let chunked = ref false in
      List.iter
        (fun h ->
          (match Proto_util.header_value ~name:"Transfer-Encoding" h with
          | Some v ->
            if Ctx.branch ctx Site.te_chunked (Proto_util.starts_with_ci ~prefix:"chunked" v)
            then chunked := true
            else Ctx.hit ctx Site.te_other
          | None -> ());
          (match Proto_util.header_value ~name:"Connection" h with
          | Some v ->
            if Ctx.branch ctx Site.conn_keepalive (Proto_util.upper v = "KEEP-ALIVE")
            then Guest_heap.set_i32 heap (conn + f_keepalive) 1
          | None -> ());
          match Proto_util.header_value ~name:"Content-Length" h with
          | Some v -> (
            match Proto_util.int_of_string_bounded ~max:1_000_000 v with
            | Some _ -> Ctx.hit ctx Site.cl_ok
            | None -> Ctx.hit ctx Site.cl_bad)
          | None -> ())
        headers;
      match meth with
      | "GET" | "HEAD" ->
        if List.mem path routes then begin
          Ctx.hit ctx (Ctx.edge (site ("route:" ^ path)));
          Ctx.set_state ctx 200;
          respond reply 200 "OK" (if meth = "HEAD" then "" else "<html>ok</html>")
        end
        else if Ctx.branch ctx Site.route_traversal (String.length path >= 2
                                                         && String.sub path 0 2 = "..")
        then begin
          Ctx.set_state ctx 403;
          respond reply 403 "Forbidden" ""
        end
        else begin
          Ctx.hit ctx Site.route_miss;
          Ctx.set_state ctx 404;
          respond reply 404 "Not Found" ""
        end
      | "POST" | "PUT" ->
        Ctx.hit ctx (Ctx.edge (site ("method:" ^ meth)));
        if !chunked && String.length body > 0 then begin
          let chunks = decode_chunked ctx body in
          ignore (Ctx.branch ctx Site.chunks_multi (chunks > 1))
        end;
        Ctx.set_state ctx 200;
        respond reply 200 "OK" ""
      | "OPTIONS" ->
        Ctx.hit ctx Site.method_options;
        respond reply 204 "No Content" ""
      | _ ->
        Ctx.hit ctx Site.method_other;
        Ctx.set_state ctx 501;
        respond reply 501 "Not Implemented" "")
    | _ ->
      Ctx.hit ctx Site.reqline_malformed;
      Ctx.set_state ctx 400;
      respond reply 400 "Bad Request" "")

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 8080;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Raw;
        startup_ns = 40_000_000;
        work_ns = 300_000;
        desock_compat = true;
        forking = false;
        max_recv = 8192;
        dict =
          [ "GET"; "POST"; "HTTP/1.1"; "Transfer-Encoding: chunked"; "Content-Length:";
            "Connection: keep-alive"; "/index.html"; "ffff" ];
      };
    hooks = { Target.default_hooks with conn_state_size = 8; on_packet };
  }

let seeds =
  [
    List.map Bytes.of_string
      [
        "GET /index.html HTTP/1.1\r\nHost: www\r\nConnection: keep-alive\r\n\r\n";
        "POST /cgi-bin/test HTTP/1.1\r\nHost: www\r\nTransfer-Encoding: chunked\r\n\r\n\
         1f\r\nthirty-one byte chunk of body!!\r\n0\r\n\r\n";
      ];
  ]
