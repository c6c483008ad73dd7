type t = {
  bitmap : Bytes.t;
  mutable stack : int array;
  mutable stack_len : int;
  pages : int;
}

let create ~num_pages =
  if num_pages <= 0 then invalid_arg "Dirty_log.create: num_pages must be positive";
  { bitmap = Bytes.make num_pages '\000'; stack = Array.make 64 0; stack_len = 0; pages = num_pages }

let num_pages t = t.pages

let is_dirty t pfn = Bytes.get t.bitmap pfn <> '\000'

let push t pfn =
  if t.stack_len = Array.length t.stack then begin
    let bigger = Array.make (2 * Array.length t.stack) 0 in
    Array.blit t.stack 0 bigger 0 t.stack_len;
    t.stack <- bigger
  end;
  t.stack.(t.stack_len) <- pfn;
  t.stack_len <- t.stack_len + 1

let mark t pfn =
  if pfn < 0 || pfn >= t.pages then invalid_arg "Dirty_log.mark: pfn out of range";
  if is_dirty t pfn then false
  else begin
    Bytes.set t.bitmap pfn '\001';
    push t pfn;
    true
  end

let count t = t.stack_len

let iter_stack t clock f =
  Nyx_sim.Clock.advance clock (t.stack_len * Nyx_sim.Cost.dirty_stack_entry);
  for i = 0 to t.stack_len - 1 do
    f t.stack.(i)
  done

let charge_stack t clock =
  Nyx_sim.Clock.advance clock (t.stack_len * Nyx_sim.Cost.dirty_stack_entry);
  t.stack_len

let stack_entry t i =
  if i < 0 || i >= t.stack_len then invalid_arg "Dirty_log.stack_entry: index out of range";
  t.stack.(i)

let iter_bitmap t clock f =
  Nyx_sim.Clock.advance clock (t.pages * Nyx_sim.Cost.bitmap_scan_per_page);
  for pfn = 0 to t.pages - 1 do
    if is_dirty t pfn then f pfn
  done

let to_list t = Array.to_list (Array.sub t.stack 0 t.stack_len)

let clear t =
  for i = 0 to t.stack_len - 1 do
    Bytes.set t.bitmap t.stack.(i) '\000'
  done;
  t.stack_len <- 0
