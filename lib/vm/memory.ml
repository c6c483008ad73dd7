(* A two-level page table: a directory of leaves, each holding the pages
   of one 256-page range. A leaf exists once a page in its range has
   materialized; an absent leaf is [[||]] and an absent page [Bytes.empty]
   (real pages are [Page.size] long), so a lookup is two array reads and
   allocates nothing. A flat array of every page would cost a word per
   guest page at creation (256 KiB for the fuzzing VM); the directory
   costs one per 256. *)
let leaf_bits = 8
let leaf_pages = 1 lsl leaf_bits

type t = {
  dir : Bytes.t array array;
  num_pages : int;
  dirty : Dirty_log.t;
  mutable count : int; (* materialized pages *)
}

exception Fault of { addr : int; size : int }

let create ~num_pages =
  {
    dir = Array.make ((num_pages + leaf_pages - 1) lsr leaf_bits) [||];
    num_pages;
    dirty = Dirty_log.create ~num_pages;
    count = 0;
  }

let num_pages t = t.num_pages
let size_bytes t = t.num_pages * Page.size
let dirty t = t.dirty

let check t addr len =
  if addr < 0 || len < 0 || addr + len > size_bytes t then
    raise (Fault { addr; size = len })

(* The page at [pfn], or [Bytes.empty] when it never materialized. *)
let find t pfn =
  let leaf = t.dir.(pfn lsr leaf_bits) in
  if Array.length leaf = 0 then Bytes.empty
  else Array.unsafe_get leaf (pfn land (leaf_pages - 1))

let absent p = Bytes.length p = 0

let install t pfn p =
  let d = pfn lsr leaf_bits in
  let leaf =
    match t.dir.(d) with
    | [||] ->
      let leaf = Array.make leaf_pages Bytes.empty in
      t.dir.(d) <- leaf;
      leaf
    | leaf -> leaf
  in
  leaf.(pfn land (leaf_pages - 1)) <- p;
  t.count <- t.count + 1

let materialize t pfn =
  let p = find t pfn in
  if absent p then begin
    let p = Page.zero () in
    install t pfn p;
    p
  end
  else p

let read t addr len =
  check t addr len;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn = Page.number a and off = Page.offset a in
    let chunk = min (len - !pos) (Page.size - off) in
    let p = find t pfn in
    if absent p then Bytes.fill out !pos chunk '\000' else Bytes.blit p off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let write t addr data =
  let len = Bytes.length data in
  check t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pfn = Page.number a and off = Page.offset a in
    let chunk = min (len - !pos) (Page.size - off) in
    let p = materialize t pfn in
    Bytes.blit data !pos p off chunk;
    ignore (Dirty_log.mark t.dirty pfn);
    pos := !pos + chunk
  done

(* Scalar accessors: the interpreter, guest heap and targets hammer these
   on every emulated instruction, so accesses that stay inside one page
   take a non-allocating fast path (direct page lookup, little-endian
   Bytes accessors, one dirty mark). Only page-straddling accesses fall
   back to the generic multi-page read/write loop. *)

let single_page addr len = Page.offset addr + len <= Page.size

let read_u8 t addr =
  check t addr 1;
  let p = find t (Page.number addr) in
  if absent p then 0 else Char.code (Bytes.get p (Page.offset addr))

let write_u8 t addr v =
  check t addr 1;
  let pfn = Page.number addr in
  let p = materialize t pfn in
  Bytes.set p (Page.offset addr) (Char.chr (v land 0xff));
  ignore (Dirty_log.mark t.dirty pfn)

let read_u16 t addr =
  if single_page addr 2 then begin
    check t addr 2;
    let p = find t (Page.number addr) in
    if absent p then 0 else Bytes.get_uint16_le p (Page.offset addr)
  end
  else begin
    let b = read t addr 2 in
    Char.code (Bytes.get b 0) lor (Char.code (Bytes.get b 1) lsl 8)
  end

let write_u16 t addr v =
  if single_page addr 2 then begin
    check t addr 2;
    let pfn = Page.number addr in
    let p = materialize t pfn in
    Bytes.set_uint16_le p (Page.offset addr) (v land 0xffff);
    ignore (Dirty_log.mark t.dirty pfn)
  end
  else begin
    let b = Bytes.create 2 in
    Bytes.set b 0 (Char.chr (v land 0xff));
    Bytes.set b 1 (Char.chr ((v lsr 8) land 0xff));
    write t addr b
  end

let read_i32 t addr =
  if single_page addr 4 then begin
    check t addr 4;
    let p = find t (Page.number addr) in
    if absent p then 0 else Int32.to_int (Bytes.get_int32_le p (Page.offset addr))
  end
  else begin
    let b = read t addr 4 in
    let v = ref 0 in
    for i = 3 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get b i)
    done;
    (* Sign-extend from 32 bits. *)
    (!v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)
  end

let write_i32 t addr v =
  if single_page addr 4 then begin
    check t addr 4;
    let pfn = Page.number addr in
    let p = materialize t pfn in
    Bytes.set_int32_le p (Page.offset addr) (Int32.of_int v);
    ignore (Dirty_log.mark t.dirty pfn)
  end
  else begin
    let b = Bytes.create 4 in
    for i = 0 to 3 do
      Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xff))
    done;
    write t addr b
  end

let read_i64 t addr =
  if single_page addr 8 then begin
    check t addr 8;
    let p = find t (Page.number addr) in
    if absent p then 0 else Int64.to_int (Bytes.get_int64_le p (Page.offset addr))
  end
  else begin
    let b = read t addr 8 in
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b i)))
    done;
    Int64.to_int !v
  end

let write_i64 t addr v =
  if single_page addr 8 then begin
    check t addr 8;
    let pfn = Page.number addr in
    let p = materialize t pfn in
    Bytes.set_int64_le p (Page.offset addr) (Int64.of_int v);
    ignore (Dirty_log.mark t.dirty pfn)
  end
  else begin
    let b = Bytes.create 8 in
    let v64 = Int64.of_int v in
    for i = 0 to 7 do
      let byte =
        Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (8 * i)) 0xFFL)
      in
      Bytes.set b i (Char.chr byte)
    done;
    write t addr b
  end

let clear_dirty t = Dirty_log.clear t.dirty

let page_content t pfn =
  let p = find t pfn in
  if absent p then None else Some (Bytes.copy p)

let set_page t pfn content =
  if Bytes.length content <> Page.size then
    invalid_arg "Memory.set_page: wrong page size";
  let p = find t pfn in
  if absent p then install t pfn (Bytes.copy content) else Bytes.blit content 0 p 0 Page.size

let drop_page t pfn =
  if not (absent (find t pfn)) then begin
    t.dir.(pfn lsr leaf_bits).(pfn land (leaf_pages - 1)) <- Bytes.empty;
    t.count <- t.count - 1
  end

(* Walks the leaves that exist, in page order. *)
let materialized t =
  let rec from d i () =
    if d >= Array.length t.dir then Seq.Nil
    else
      let leaf = t.dir.(d) in
      if i >= Array.length leaf then from (d + 1) 0 ()
      else if absent leaf.(i) then from d (i + 1) ()
      else Seq.Cons (((d lsl leaf_bits) + i, leaf.(i)), from d (i + 1))
  in
  from 0 0

let materialized_count t = t.count
