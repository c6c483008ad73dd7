open Nyx_vm

let name = "firefox-ipc"
let site s = name ^ "/" ^ s

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let packet = Ctx.edge (site "packet")
  let short = Ctx.edge_pair (site "short")
  let len_ok = Ctx.edge_pair (site "len:ok")
  let actor_range = Ctx.edge_pair (site "actor:range")
  let msg_create = Ctx.edge (site "msg:create")
  let create_live = Ctx.edge_pair (site "create:live")
  let msg_destroy = Ctx.edge (site "msg:destroy")
  let destroy_live = Ctx.edge_pair (site "destroy:live")
  let msg_actor_message = Ctx.edge (site "msg:actor-message")
  let deliver_live = Ctx.edge (site "deliver:live")
  let deliver_empty = Ctx.edge (site "deliver:empty")
  let deliver_small = Ctx.edge (site "deliver:small")
  let deliver_large = Ctx.edge (site "deliver:large")
  let deliver_free = Ctx.edge (site "deliver:free")
  let msg_share_handle = Ctx.edge (site "msg:share-handle")
  let share_range = Ctx.edge_pair (site "share:range")
  let share_both_live = Ctx.edge_pair (site "share:both-live")
  let msg_ping = Ctx.edge (site "msg:ping")
  let msg_unknown = Ctx.edge (site "msg:unknown")
end

(* Message types. *)
let mt_create_actor = 1
let mt_destroy_actor = 2
let mt_actor_message = 3
let mt_share_handle = 4
let mt_ping = 5

let max_actors = 8

(* Global state layout: actor table of [state:i32] entries
   (0 free, 1 live, 2 destroyed-dangling). *)
let actor_off i = 4 * i
let g_size = 4 * max_actors

let make_msg ~actor ~msg_type payload =
  let buf = Buffer.create (8 + Bytes.length payload) in
  let u16 v =
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (v land 0xff))
  in
  u16 actor;
  u16 msg_type;
  let len = Bytes.length payload in
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((len lsr (8 * i)) land 0xff))
  done;
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

let on_packet ctx ~g ~conn:_ ~reply data =
  let heap = ctx.Ctx.heap in
  Ctx.hit ctx Site.packet;
  if Ctx.branch ctx Site.short (Bytes.length data < 8) then ()
  else begin
    let be pos len = Option.value ~default:0 (Proto_util.read_be data ~pos ~len) in
    let actor = be 0 2 in
    let msg_type = be 2 2 in
    let declared = be 4 4 in
    ignore (Ctx.branch ctx Site.len_ok (declared = Bytes.length data - 8));
    if Ctx.branch ctx Site.actor_range (actor >= max_actors) then
      reply (make_msg ~actor:0 ~msg_type:0xFF (Bytes.of_string "bad actor"))
    else begin
      let state () = Guest_heap.get_i32 heap (g + actor_off actor) in
      match msg_type with
      | t when t = mt_create_actor ->
        Ctx.hit ctx Site.msg_create;
        if Ctx.branch ctx Site.create_live (state () = 1) then
          reply (make_msg ~actor ~msg_type:0xFE (Bytes.of_string "already live"))
        else begin
          Guest_heap.set_i32 heap (g + actor_off actor) 1;
          reply (make_msg ~actor ~msg_type:mt_create_actor Bytes.empty)
        end
      | t when t = mt_destroy_actor ->
        Ctx.hit ctx Site.msg_destroy;
        if Ctx.branch ctx Site.destroy_live (state () = 1) then begin
          (* The handler marks the slot dangling instead of free: the
             use-after-free setup. *)
          Guest_heap.set_i32 heap (g + actor_off actor) 2;
          reply (make_msg ~actor ~msg_type:mt_destroy_actor Bytes.empty)
        end
        else reply (make_msg ~actor ~msg_type:0xFE (Bytes.of_string "not live"))
      | t when t = mt_actor_message ->
        Ctx.hit ctx Site.msg_actor_message;
        (match state () with
        | 1 ->
          Ctx.hit ctx Site.deliver_live;
          (match Bytes.length data - 8 with
          | 0 -> Ctx.hit ctx Site.deliver_empty
          | n when n < 16 -> Ctx.hit ctx Site.deliver_small
          | _ -> Ctx.hit ctx Site.deliver_large);
          reply (make_msg ~actor ~msg_type:mt_actor_message (Bytes.of_string "ack"))
        | 2 ->
          Ctx.crash ctx ~kind:"use-after-free"
            (Printf.sprintf "message delivered to destroyed actor %d" actor)
        | _ ->
          Ctx.hit ctx Site.deliver_free;
          reply (make_msg ~actor ~msg_type:0xFE (Bytes.of_string "no actor")))
      | t when t = mt_share_handle ->
        Ctx.hit ctx Site.msg_share_handle;
        (* Payload names another actor slot to link; both must be live. *)
        let other = be 8 2 in
        if Ctx.branch ctx Site.share_range (other >= max_actors) then ()
        else begin
          let other_state = Guest_heap.get_i32 heap (g + actor_off other) in
          if Ctx.branch ctx Site.share_both_live (state () = 1 && other_state = 1)
          then begin
            (* Mimics dup(): the agent must track the aliased descriptor. *)
            let fd = Nyx_netemu.Net.socket ctx.Ctx.net Nyx_netemu.Net.Unix_sock in
            let fd2 = Nyx_netemu.Net.dup ctx.Ctx.net fd in
            Nyx_netemu.Net.close ctx.Ctx.net fd;
            Nyx_netemu.Net.close ctx.Ctx.net fd2;
            reply (make_msg ~actor ~msg_type:mt_share_handle Bytes.empty)
          end
        end
      | t when t = mt_ping ->
        Ctx.hit ctx Site.msg_ping;
        reply (make_msg ~actor ~msg_type:mt_ping (Bytes.of_string "pong"))
      | _ -> Ctx.hit ctx Site.msg_unknown
    end
  end

let target =
  {
    Target.info =
      {
        Target.name;
        role = Target.Server;
        port = 9900;
        proto = Nyx_netemu.Net.Unix_sock;
        dissector = Nyx_pcap.Dissector.Raw;
        startup_ns = 1_500_000_000;
        work_ns = 2_000_000;
        desock_compat = false;
        forking = false;
        max_recv = 65536;
        dict = [ "\x00\x01"; "\x00\x02"; "\x00\x03"; "\x00\x04"; "\x00\x05" ];
      };
    hooks = { Target.default_hooks with global_state_size = g_size; on_packet };
  }

let seeds =
  [
    [
      make_msg ~actor:1 ~msg_type:mt_create_actor Bytes.empty;
      make_msg ~actor:1 ~msg_type:mt_ping Bytes.empty;
      make_msg ~actor:1 ~msg_type:mt_actor_message (Bytes.of_string "hello actor");
      make_msg ~actor:2 ~msg_type:mt_create_actor Bytes.empty;
      make_msg ~actor:1 ~msg_type:mt_share_handle (Bytes.of_string "\x00\x02");
      make_msg ~actor:1 ~msg_type:mt_destroy_actor Bytes.empty;
    ];
  ]
