open Nyx_sim

let interesting_bytes = [| 0; 1; 16; 32; 64; 100; 127; 128; 255 |]

(* The working buffer: [len] live bytes at the front of [buf], which grows
   by doubling. Every round edits it in place; it starts as a private copy
   of the input, so nothing here writes into the caller's bytes. *)
type work = { mutable buf : Bytes.t; mutable len : int }

(* Open a gap of [k] bytes at [at], shifting the tail right. *)
let open_gap w at k =
  if w.len + k > Bytes.length w.buf then begin
    let bigger = Bytes.create (max (2 * Bytes.length w.buf) (w.len + k)) in
    Bytes.blit w.buf 0 bigger 0 w.len;
    w.buf <- bigger
  end;
  Bytes.blit w.buf at w.buf (at + k) (w.len - at);
  w.len <- w.len + k

(* The byte ops draw the position, then the new value. *)
let byte_op rng w choice =
  if w.len > 0 then begin
    let i = Rng.int rng w.len in
    let c = Char.code (Bytes.get w.buf i) in
    let c =
      match choice with
      | 0 -> c lxor (1 lsl Rng.int rng 8)
      | 1 -> Rng.choose rng interesting_bytes
      | 2 -> Char.code (Rng.byte rng)
      | _ -> c + Rng.int_in rng (-16) 16
    in
    Bytes.set w.buf i (Char.chr (c land 0xff))
  end

let delete_range rng w =
  if w.len >= 2 then begin
    let start = Rng.int rng w.len in
    let dlen = 1 + Rng.int rng (min 16 (w.len - start)) in
    Bytes.blit w.buf (start + dlen) w.buf start (w.len - start - dlen);
    w.len <- w.len - dlen
  end

let duplicate_range rng w =
  if w.len > 0 then begin
    let start = Rng.int rng w.len in
    let dlen = 1 + Rng.int rng (min 16 (w.len - start)) in
    let chunk = Bytes.sub w.buf start dlen in
    let at = Rng.int rng (w.len + 1) in
    open_gap w at dlen;
    Bytes.blit chunk 0 w.buf at dlen
  end

let insert_random rng w =
  let at = Rng.int rng (w.len + 1) in
  let k = 1 + Rng.int rng 8 in
  open_gap w at k;
  for j = at to at + k - 1 do
    Bytes.set w.buf j (Rng.byte rng)
  done

let splice_dict rng dict w =
  match dict with
  | [] -> ()
  | _ ->
    let token = Rng.choose_list rng dict in
    let tlen = Bytes.length token in
    let at = Rng.int rng (w.len + 1) in
    (* Overwrite in place, or insert. *)
    if not (Rng.bool rng && w.len > at + tlen) then open_gap w at tlen;
    Bytes.blit token 0 w.buf at tlen

let mutate rng ?(dict = []) ?(max_len = 4096) ?(rounds = 8) data =
  let n = 1 + Rng.int rng rounds in
  let w = { buf = Bytes.copy data; len = Bytes.length data } in
  for _ = 1 to n do
    match Rng.int rng 8 with
    | (0 | 1 | 2 | 3) as choice -> byte_op rng w choice
    | 4 -> delete_range rng w
    | 5 -> duplicate_range rng w
    | 6 -> insert_random rng w
    | 7 -> splice_dict rng dict w
    | _ -> assert false
  done;
  let len = min w.len max_len in
  (* The buffer is private, so an exact fit can be returned as is. *)
  if len = Bytes.length w.buf then w.buf else Bytes.sub w.buf 0 len
