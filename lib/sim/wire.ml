exception Corrupt of string

let add_i64 = Buffer.add_int64_be
let add_int b v = add_i64 b (Int64.of_int v)
let add_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let add_bytes b s =
  add_int b (Bytes.length s);
  Buffer.add_bytes b s

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_opt f b = function
  | None -> add_bool b false
  | Some v ->
    add_bool b true;
    f b v

let add_list f b l =
  add_int b (List.length l);
  List.iter (f b) l

let add_int_array b a =
  add_int b (Array.length a);
  Array.iter (add_int b) a

let to_bytes f =
  let b = Buffer.create 256 in
  f b;
  Buffer.to_bytes b

type cursor = { data : bytes; mutable pos : int }

let left c = Bytes.length c.data - c.pos

let need c n = if n > left c then raise (Corrupt "truncated input")

(* Another version of the same magic (all but its last character) is
   named, so an old file reads as old rather than as garbage. *)
let cursor ~magic data =
  let n = String.length magic in
  let head = Bytes.sub_string data 0 (min n (Bytes.length data)) in
  let family s = String.sub s 0 (max 0 (n - 1)) in
  if head <> magic then
    if String.length head = n && family head = family magic then
      raise (Corrupt (Printf.sprintf "unsupported format %s (this build reads %s)" head magic))
    else raise (Corrupt "bad magic");
  { data; pos = n }

let expect_end c = if left c <> 0 then raise (Corrupt "trailing garbage")

let get_i64 c =
  need c 8;
  let v = Bytes.get_int64_be c.data c.pos in
  c.pos <- c.pos + 8;
  v

let get_int c = Int64.to_int (get_i64 c)

(* Every encoded list element takes at least one byte, so a count larger
   than the bytes left is corrupt: reject it before allocating. *)
let get_len c =
  let n = get_int c in
  if n < 0 || n > left c then raise (Corrupt "bad length field");
  n

let get_bool c =
  need c 1;
  let v = Bytes.get c.data c.pos in
  c.pos <- c.pos + 1;
  match v with
  | '\000' -> false
  | '\001' -> true
  | _ -> raise (Corrupt "bad boolean")

let get_bytes c =
  let n = get_len c in
  let s = Bytes.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_str c = Bytes.to_string (get_bytes c)

let get_opt f c = if get_bool c then Some (f c) else None

let get_list f c =
  let n = get_len c in
  List.init n (fun _ -> f c)

let get_int_array c = Array.of_list (get_list get_int c)

let of_bytes f data =
  let c = { data; pos = 0 } in
  let v = f c in
  expect_end c;
  v
