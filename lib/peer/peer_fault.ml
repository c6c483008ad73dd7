open Nyx_resilience

type field_kind = Outer_len | Inner_len | Field

type field = {
  f_name : string;
  f_kind : field_kind;
  f_pos : int;
  f_len : int;
  f_big_endian : bool;
}

type message = {
  m_name : string;
  m_bytes : bytes;
  m_fields : field list;
  m_reframe : (bytes -> bytes) option;
}

let plain name bytes = { m_name = name; m_bytes = bytes; m_fields = []; m_reframe = None }

(* ------------------------------------------------------------------ *)
(* Deterministic choice: every transform derives its positions, deltas
   and field picks from a small integer hash of the fault's provenance
   and the message length. No RNG — the plan's RNG already decided
   whether the fault fires; what it does must be replayable from the
   fault record alone (checkpoint resume re-applies the same surgery). *)

let mix a b = ((((a lxor 0x9E3779B1) * 31) + b) land 0x3FFFFFFF)

let salt (f : Fault.t) m =
  mix (mix f.Fault.seq f.Fault.site_seq) (Bytes.length m.m_bytes)

let in_range m f =
  f.f_pos >= 0 && f.f_len > 0 && f.f_pos + f.f_len <= Bytes.length m.m_bytes

(* The in-range fields of [kind], counted, and the [k]-th of them: a pick
   walks the annotation list instead of filtering it into a new one. *)
let rec count_kind m kind = function
  | [] -> 0
  | f :: rest -> (if f.f_kind = kind && in_range m f then 1 else 0) + count_kind m kind rest

let rec nth_kind m kind k = function
  | [] -> invalid_arg "Peer_fault.nth_kind"
  | f :: rest ->
    if f.f_kind = kind && in_range m f then if k = 0 then f else nth_kind m kind (k - 1) rest
    else nth_kind m kind k rest

(* The [h]-th field of [kind], wrapped; [None] when there is none. *)
let pick_field h m kind =
  match count_kind m kind m.m_fields with
  | 0 -> None
  | n -> Some (nth_kind m kind (h mod n) m.m_fields)

let read_uint b ~pos ~len ~be =
  let v = ref 0 in
  if be then
    for i = 0 to len - 1 do
      v := (!v lsl 8) lor Char.code (Bytes.get b (pos + i))
    done
  else
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get b (pos + i))
    done;
  !v

let write_uint b ~pos ~len ~be v =
  if be then
    for i = 0 to len - 1 do
      Bytes.set b (pos + i) (Char.chr ((v lsr (8 * (len - 1 - i))) land 0xff))
    done
  else
    for i = 0 to len - 1 do
      Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xff))
    done

(* [b] is always a private buffer, never [m.m_bytes]. *)
let reframe m b = match m.m_reframe with Some f -> f b | None -> b

let has_crlf b =
  let n = Bytes.length b in
  n >= 2 && Bytes.get b (n - 2) = '\r' && Bytes.get b (n - 1) = '\n'

(* ------------------------------------------------------------------ *)
(* The transforms. Each returns (wire images, detail). A message's
   [m_bytes] is shared by every session of its script, so it is only
   read: a transform that changes bytes builds a private buffer first.
   The detail is for a trace instant and is formatted only when a trace
   sink is on; otherwise it is empty. *)

let flip h m =
  let b = Bytes.copy m.m_bytes in
  let n = Bytes.length b in
  if n = 0 then ([ b ], "flip:empty-noop")
  else begin
    let pos = h mod n in
    let bit = mix h 7 mod 8 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    ([ b ], if Nyx_obs.Trace.on () then Printf.sprintf "flip byte %d bit %d" pos bit else "")
  end

let truncate h m =
  let n = Bytes.length m.m_bytes in
  if n < 2 then flip h m
  else begin
    (* Cut mid-message but re-seal the outer framing: a well-framed short
       body reaches the parser's short-field paths instead of being
       discarded by a length check at the door. *)
    let keep = 1 + (h mod (n - 1)) in
    let b = reframe m (Bytes.sub m.m_bytes 0 keep) in
    ([ b ], if Nyx_obs.Trace.on () then Printf.sprintf "truncate %d -> %d bytes" n keep else "")
  end

(* The same image twice: the network copies what it is sent. *)
let duplicate _h m = ([ m.m_bytes; m.m_bytes ], "duplicate")

(* A length field that lies. Preferred surgery: pick an [Inner_len]
   field, append filler the inner length now claims as real data, bump
   the field and re-seal the outer framing — the message stays
   transport-valid while a nested length exceeds what the peer actually
   encoded (the classic over-read shape). Without an inner length the
   outer one is overstated in place; without any length field (line
   protocols) junk is padded before the terminator. *)
let length_lie h m =
  match pick_field h m Inner_len with
  | Some f ->
    let delta = 1 + (mix h 5 mod 64) in
    let n = Bytes.length m.m_bytes in
    let b = Bytes.make (n + delta) 'A' in
    Bytes.blit m.m_bytes 0 b 0 n;
    let cap = (1 lsl (8 * f.f_len)) - 1 in
    let v = read_uint b ~pos:f.f_pos ~len:f.f_len ~be:f.f_big_endian in
    write_uint b ~pos:f.f_pos ~len:f.f_len ~be:f.f_big_endian (min cap (v + delta));
    ( [ reframe m b ],
      if Nyx_obs.Trace.on () then
        Printf.sprintf "length-lie %s %d -> %d (+%d filler)" f.f_name v (min cap (v + delta))
          delta
      else "" )
  | None -> (
    match pick_field h m Outer_len with
    | Some f ->
      let delta = 1 + (mix h 5 mod 64) in
      let b = Bytes.copy m.m_bytes in
      let cap = (1 lsl (8 * f.f_len)) - 1 in
      let v = read_uint b ~pos:f.f_pos ~len:f.f_len ~be:f.f_big_endian in
      write_uint b ~pos:f.f_pos ~len:f.f_len ~be:f.f_big_endian (min cap (v + delta));
      ( [ b ],
        if Nyx_obs.Trace.on () then
          Printf.sprintf "length-lie %s %d -> %d" f.f_name v (min cap (v + delta))
        else "" )
    | None ->
      let pad = 8 + (mix h 5 mod 24) in
      let n = Bytes.length m.m_bytes in
      let body = if has_crlf m.m_bytes then n - 2 else n in
      let b = Bytes.make (body + pad + (n - body)) 'x' in
      Bytes.blit m.m_bytes 0 b 0 body;
      Bytes.blit m.m_bytes body b (body + pad) (n - body);
      ( [ b ],
        if Nyx_obs.Trace.on () then Printf.sprintf "length-lie: pad %d junk bytes" pad else "" ))

(* Shift the outer frame boundary without re-sealing anything: the bytes
   on the wire no longer line up with the framing, so the target's
   de-framer reads into the next message or stalls mid-frame. *)
let desync_frame h m =
  match pick_field h m Outer_len with
  | Some f ->
    let delta = 1 + (mix h 11 mod 7) in
    let delta = if mix h 13 mod 2 = 0 then delta else -delta in
    let b = Bytes.copy m.m_bytes in
    let v = read_uint b ~pos:f.f_pos ~len:f.f_len ~be:f.f_big_endian in
    let cap = (1 lsl (8 * f.f_len)) - 1 in
    let v' = max 0 (min cap (v + delta)) in
    write_uint b ~pos:f.f_pos ~len:f.f_len ~be:f.f_big_endian v';
    ( [ b ],
      if Nyx_obs.Trace.on () then Printf.sprintf "desync-frame %s %d -> %d" f.f_name v v'
      else "" )
  | None ->
    if has_crlf m.m_bytes then begin
      let b = Bytes.sub m.m_bytes 0 (Bytes.length m.m_bytes - 2) in
      ([ b ], "desync-frame: strip line terminator")
    end
    else flip h m

let drop_field h m =
  match pick_field h m Field with
  | Some f ->
    let n = Bytes.length m.m_bytes in
    let b = Bytes.create (n - f.f_len) in
    Bytes.blit m.m_bytes 0 b 0 f.f_pos;
    Bytes.blit m.m_bytes (f.f_pos + f.f_len) b f.f_pos (n - f.f_pos - f.f_len);
    ( [ reframe m b ],
      if Nyx_obs.Trace.on () then Printf.sprintf "drop-field %s (%d bytes)" f.f_name f.f_len
      else "" )
  | None -> truncate h m

let apply (fault : Fault.t) m =
  let h = salt fault m in
  match fault.Fault.site with
  | Fault.Peer_flip -> flip h m
  | Fault.Peer_truncate -> truncate h m
  | Fault.Peer_duplicate -> duplicate h m
  | Fault.Peer_length_lie -> length_lie h m
  | Fault.Peer_desync_frame -> desync_frame h m
  | Fault.Peer_drop_field -> drop_field h m
  | site ->
    invalid_arg
      (Printf.sprintf "Peer_fault.apply: %s is not a peer site" (Fault.site_name site))

(* ------------------------------------------------------------------ *)
(* --peer-faults spec parsing: Plan's grammar over the peer sites, short
   names welcome. *)

let parse_spec =
  Plan.parse_sites ~what:"peer fault"
    ~names:
      [
        ("flip", Fault.Peer_flip);
        ("truncate", Fault.Peer_truncate);
        ("duplicate", Fault.Peer_duplicate);
        ("length-lie", Fault.Peer_length_lie);
        ("desync-frame", Fault.Peer_desync_frame);
        ("drop-field", Fault.Peer_drop_field);
      ]
