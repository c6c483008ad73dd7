open Nyx_vm

let name = "forked-daapd"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let query_flag = Ctx.edge (site "query:flag")
  let query_session_ok = Ctx.edge (site "query:session-ok")
  let query_session_bad = Ctx.edge (site "query:session-bad")
  let query_revision = Ctx.edge (site "query:revision")
  let query_meta = Ctx.edge (site "query:meta")
  let query_type = Ctx.edge (site "query:type")
  let query_other = Ctx.edge (site "query:other")
  let packet = Ctx.edge (site "packet")
  let empty = Ctx.edge (site "empty")
  let ua_itunes = Ctx.edge_pair (site "ua:itunes")
  let enc_gzip = Ctx.edge_pair (site "enc:gzip")
  let method_get = Ctx.edge (site "method:get")
  let route_db_items = Ctx.edge_pair (site "route:db-items")
  let db_id_ok = Ctx.edge (site "db:id-ok")
  let db_items = Ctx.edge_pair (site "db:items")
  let db_containers = Ctx.edge_pair (site "db:containers")
  let db_id_bad = Ctx.edge (site "db:id-bad")
  let route_unknown = Ctx.edge (site "route:unknown")
  let method_post = Ctx.edge (site "method:post")
  let post_ctrl = Ctx.edge_pair (site "post:ctrl")
  let method_head = Ctx.edge (site "method:head")
  let method_other = Ctx.edge (site "method:other")
  let reqline_malformed = Ctx.edge (site "reqline:malformed")
end

let f_requests = 0

let routes =
  [
    ("/server-info", "srvr");
    ("/login", "logi");
    ("/update", "mupd");
    ("/databases", "avdb");
    ("/content-codes", "mccr");
    ("/logout", "");
  ]

let parse_query ctx query =
  String.split_on_char '&' query
  |> List.iter (fun kv ->
         match String.index_opt kv '=' with
         | None -> Ctx.hit ctx Site.query_flag
         | Some i -> (
           let key = String.sub kv 0 i in
           match key with
           | "session-id" -> (
             let v = String.sub kv (i + 1) (String.length kv - i - 1) in
             match Proto_util.int_of_string_bounded ~max:1_000_000 v with
             | Some _ -> Ctx.hit ctx Site.query_session_ok
             | None -> Ctx.hit ctx Site.query_session_bad)
           | "revision-number" -> Ctx.hit ctx Site.query_revision
           | "meta" -> Ctx.hit ctx Site.query_meta
           | "type" -> Ctx.hit ctx Site.query_type
           | _ -> Ctx.hit ctx Site.query_other))

let on_packet ctx ~g:_ ~conn ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  Guest_heap.set_i32 heap (conn + f_requests)
    (Guest_heap.get_i32 heap (conn + f_requests) + 1);
  let text = Bytes.to_string data in
  let r code reason body =
    Ctx.set_state ctx code;
    reply
      (Bytes.of_string
         (Printf.sprintf "HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n%s" code reason
            (String.length body) body))
  in
  match String.split_on_char '\n' text |> List.map String.trim with
  | [] -> Ctx.hit ctx Site.empty
  | request_line :: headers -> (
    match Proto_util.tokens request_line with
    | meth :: url :: _ -> (
      let meth = Proto_util.upper meth in
      (* Headers: Host, User-Agent, Accept-Encoding drive branches. *)
      List.iter
        (fun h ->
          match Proto_util.header_value ~name:"User-Agent" h with
          | Some ua ->
            ignore
              (Ctx.branch ctx Site.ua_itunes (Proto_util.starts_with_ci ~prefix:"iTunes" ua))
          | None -> (
            match Proto_util.header_value ~name:"Accept-Encoding" h with
            | Some enc ->
              ignore (Ctx.branch ctx Site.enc_gzip (String.length enc > 0
                                                        && String.contains enc 'g'))
            | None -> ()))
        headers;
      let path, query =
        match String.index_opt url '?' with
        | None -> (url, "")
        | Some i -> (String.sub url 0 i, String.sub url (i + 1) (String.length url - i - 1))
      in
      if query <> "" then parse_query ctx query;
      match meth with
      | "GET" -> (
        Ctx.hit ctx Site.method_get;
        (* Database items route: /databases/<n>/items *)
        if Ctx.branch ctx Site.route_db_items
             (Proto_util.starts_with_ci ~prefix:"/databases/" path
             && String.length path > 11)
        then begin
          let rest = String.sub path 11 (String.length path - 11) in
          (match String.index_opt rest '/' with
          | Some i -> (
            let dbid = String.sub rest 0 i in
            match Proto_util.int_of_string_bounded ~max:100 dbid with
            | Some _ ->
              Ctx.hit ctx Site.db_id_ok;
              let sub = String.sub rest i (String.length rest - i) in
              if Ctx.branch ctx Site.db_items (Proto_util.starts_with_ci ~prefix:"/items" sub)
              then r 200 "OK" "adbs"
              else if Ctx.branch ctx Site.db_containers
                        (Proto_util.starts_with_ci ~prefix:"/containers" sub)
              then r 200 "OK" "aply"
              else r 404 "Not Found" ""
            | None ->
              Ctx.hit ctx Site.db_id_bad;
              r 400 "Bad Request" "")
          | None -> r 200 "OK" "avdb")
        end
        else begin
          match List.assoc_opt path routes with
          | Some body ->
            Ctx.hit ctx (Ctx.edge (site ("route:" ^ path)));
            r 200 "OK" body
          | None ->
            Ctx.hit ctx Site.route_unknown;
            r 404 "Not Found" ""
        end)
      | "POST" ->
        Ctx.hit ctx Site.method_post;
        if Ctx.branch ctx Site.post_ctrl (Proto_util.starts_with_ci ~prefix:"/ctrl-int" path)
        then r 204 "No Content" ""
        else r 405 "Method Not Allowed" ""
      | "HEAD" ->
        Ctx.hit ctx Site.method_head;
        r 200 "OK" ""
      | _ ->
        Ctx.hit ctx Site.method_other;
        r 501 "Not Implemented" "")
    | _ ->
      Ctx.hit ctx Site.reqline_malformed;
      r 400 "Bad Request" "")

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 3689;
        proto = Nyx_netemu.Net.Tcp;
        dissector = Nyx_pcap.Dissector.Raw;
        startup_ns = 800_000_000;
        work_ns = 25_000_000;
        desock_compat = true;
        forking = true;
        max_recv = 4096;
        dict = [ "GET"; "POST"; "/databases/"; "/login"; "/ctrl-int"; "session-id="; "User-Agent: iTunes" ];
      };
    hooks = { Target.default_hooks with conn_state_size = 8; on_packet };
  }

let seeds =
  [
    List.map Bytes.of_string
      [
        "GET /server-info HTTP/1.1\r\nHost: daap.local\r\nUser-Agent: iTunes/12.0\r\n\r\n";
        "GET /login HTTP/1.1\r\nHost: daap.local\r\n\r\n";
        "GET /databases/1/items?session-id=50&meta=dmap.itemname HTTP/1.1\r\n\r\n";
      ];
  ]
