(* The splitmix64 state lives in an 8-byte buffer, not a mutable [int64]
   field: [Bytes.get_int64_ne] and [Bytes.set_int64_ne] are unboxed
   primitives, so a draw allocates nothing, where storing into a record
   field would box a fresh [int64] on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64 step: one 64-bit output per call. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let state t = Bytes.get_int64_ne t 0
let set_state t s = Bytes.set_int64_ne t 0 s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits: Int64.to_int keeps the low 63 bits, so a raw
     63-bit value could still come out negative. *)
  let v = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let[@inline] float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x *. v /. 9007199254740992.0 (* 2^53 *)

let chance t p = float t 1.0 < p

let byte t = Char.chr (int t 256)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (byte t)
  done;
  b

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Loops over local float refs, which stay unboxed, so a pick allocates
   nothing. The weights are summed left to right and compared as
   [not (acc +. w > target)]: the exact float operations of a left fold,
   so picks are reproducible bit for bit (NaN included). *)
let weighted t pairs =
  let total = ref 0.0 and l = ref pairs in
  while
    match !l with
    | [] -> false
    | (_, w) :: rest ->
      total := !total +. w;
      l := rest;
      true
  do
    ()
  done;
  if !total <= 0.0 then invalid_arg "Rng.weighted: non-positive total weight";
  let target = float t !total in
  let acc = ref 0.0 and l = ref pairs in
  while
    match !l with
    | [] -> invalid_arg "Rng.weighted: empty list"
    | [ _ ] -> false
    | (_, w) :: rest ->
      (not (!acc +. w > target))
      && begin
           acc := !acc +. w;
           l := rest;
           true
         end
  do
    ()
  done;
  fst (List.hd !l)
