open Nyx_vm
open Nyx_targets

type t = { ctx : Ctx.t; level : Level.t; base : int }

type buttons = { right : bool; left : bool; jump : bool; run : bool }

exception Level_solved of { frames : int }

let frames_per_byte = 4
let frame_cost_ns = 50_000

(* Instrumentation sites, hashed into edge ids once, at load. *)
module Site = struct
  let walljump_glitch = Ctx.edge "mario/walljump-glitch"
  let death_spike = Ctx.edge "mario/death:spike"
  let death_pit = Ctx.edge "mario/death:pit"
  let win = Ctx.edge "mario/win"
end

let buttons_of_byte b =
  {
    right = b land 1 <> 0;
    left = b land 2 <> 0;
    jump = b land 4 <> 0;
    run = b land 8 <> 0;
  }

(* Guest-state field offsets (i32, sixteenths of a pixel for kinematics). *)
let f_x = 0
let f_y = 4
let f_vx = 8
let f_vy = 12
let f_on_ground = 16
let f_alive = 20
let f_won = 24
let f_frame = 28
let f_wall = 32 (* -1 touching left wall, 1 right wall, 0 none *)
let f_max_x = 36
let f_prev_jump = 40
let state_size = 44

(* Physics constants, in sixteenths of a pixel per frame. *)
let gravity = 8
let move_accel = 6
let friction = 4
let max_vx_walk = 40
let max_vx_run = 56
let jump_velocity = 120
let max_fall = 80

(* Player hitbox in pixels. *)
let body_w = 12
let body_h = 14

let px16 v = v * 16

let boot ctx level =
  let base = Guest_heap.alloc ctx.Ctx.heap state_size in
  let set off v = Guest_heap.set_i32 ctx.Ctx.heap (base + off) v in
  set f_x (px16 (level.Level.spawn_col * Level.tile_px));
  set f_y (px16 ((level.Level.height - 4) * Level.tile_px));
  set f_alive 1;
  { ctx; level; base }

let base t = t.base
let attach ctx level ~base = { ctx; level; base }

let get t off = Guest_heap.get_i32 t.ctx.Ctx.heap (t.base + off)

(* The frame loop reads and writes the whole state block once per frame
   instead of field by field: one guest transaction each way. *)
let decode_i32 buf off =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get buf (off + i))
  done;
  (!v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)

let encode_i32 buf off v =
  for i = 0 to 3 do
    Bytes.set buf (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let alive t = get t f_alive = 1
let won t = get t f_won = 1
let x_px t = get t f_x / 16
let y_px t = get t f_y / 16
let frame t = get t f_frame
let max_x_px t = get t f_max_x / 16

(* Does the player's box at (x16, y16) overlap a tile equal to [tile]?
   Allocation-free: this runs several times per frame. *)
let box_hits t tile x16 y16 =
  let x = x16 / 16 and y = y16 / 16 in
  let c0 = x / Level.tile_px and c1 = (x + body_w - 1) / Level.tile_px in
  let r0 = y / Level.tile_px
  and r1 = (y + (body_h / 2)) / Level.tile_px
  and r2 = (y + body_h - 1) / Level.tile_px in
  let at col row = Level.tile_at t.level ~col ~row == tile in
  at c0 r0 || at c0 r1 || at c0 r2 || at c1 r0 || at c1 r1 || at c1 r2

let step t (b : buttons) =
  let state = Guest_heap.get_bytes t.ctx.Ctx.heap t.base state_size in
  if decode_i32 state f_alive <> 1 || decode_i32 state f_won = 1 then ()
  else begin
    Ctx.work t.ctx frame_cost_ns;
    let x = decode_i32 state f_x and y = decode_i32 state f_y in
    let vx = decode_i32 state f_vx and vy = decode_i32 state f_vy in
    let on_ground = decode_i32 state f_on_ground = 1 in
    let wall = decode_i32 state f_wall in
    let prev_jump = decode_i32 state f_prev_jump = 1 in
    (* Horizontal control. *)
    let max_vx = if b.run then max_vx_run else max_vx_walk in
    let vx =
      if b.right && not b.left then min max_vx (vx + move_accel)
      else if b.left && not b.right then max (-max_vx) (vx - move_accel)
      else if vx > 0 then max 0 (vx - friction)
      else min 0 (vx + friction)
    in
    (* Jumping: grounded jumps, plus the wall-jump glitch (a fresh jump
       press while falling against a wall, pushing into it). *)
    let jump_pressed = b.jump && not prev_jump in
    let vy =
      if jump_pressed && on_ground then -jump_velocity
      else if
        (* The glitch window is tight: the press must land just after the
           apex, while drifting down slowly against the wall. *)
        jump_pressed && (not on_ground) && vy > 0 && vy < 56
        && ((wall = 1 && b.right) || (wall = -1 && b.left))
      then begin
        Ctx.hit t.ctx Site.walljump_glitch;
        -jump_velocity
      end
      else vy
    in
    let vy = min max_fall (vy + gravity) in
    (* Horizontal move and wall resolution. *)
    let new_x = max 0 (x + vx) in
    let x, vx, wall =
      if box_hits t Level.Solid new_x y then begin
        (* Clamp to the tile edge we ran into. *)
        let dir = if vx > 0 then 1 else -1 in
        let col =
          if vx > 0 then ((new_x / 16) + body_w - 1) / Level.tile_px
          else new_x / 16 / Level.tile_px
        in
        let clamped =
          if vx > 0 then px16 (col * Level.tile_px) - px16 body_w
          else px16 ((col + 1) * Level.tile_px)
        in
        (clamped, 0, dir)
      end
      else begin
        (* Still touching a wall if pushing against an adjacent tile. *)
        let touching_right = box_hits t Level.Solid (new_x + 16) y in
        let touching_left = new_x >= 16 && box_hits t Level.Solid (new_x - 16) y in
        (new_x, vx, if touching_right then 1 else if touching_left then -1 else 0)
      end
    in
    (* Vertical move, landing and ceilings. *)
    let new_y = y + vy in
    let y, vy =
      if box_hits t Level.Solid x new_y then begin
        if vy > 0 then begin
          let row = ((new_y / 16) + body_h - 1) / Level.tile_px in
          (px16 (row * Level.tile_px) - px16 body_h, 0)
        end
        else begin
          let row = new_y / 16 / Level.tile_px in
          (px16 ((row + 1) * Level.tile_px), 0)
        end
      end
      else (new_y, vy)
    in
    (* Grounded when solid ground sits one pixel below the feet (the
       landing clamp leaves the hitbox just above the tile). *)
    let on_ground = vy >= 0 && box_hits t Level.Solid x (y + 16) in
    (* Hazards and goals. *)
    let alive_now = ref true in
    if box_hits t Level.Spike x y then begin
      Ctx.hit t.ctx Site.death_spike;
      alive_now := false
    end;
    if y / 16 > t.level.Level.height * Level.tile_px then begin
      Ctx.hit t.ctx Site.death_pit;
      alive_now := false
    end;
    let frame = decode_i32 state f_frame + 1 in
    let won_now = !alive_now && x / 16 >= t.level.Level.flag_col * Level.tile_px in
    encode_i32 state f_x x;
    encode_i32 state f_y y;
    encode_i32 state f_vx vx;
    encode_i32 state f_vy vy;
    encode_i32 state f_on_ground (if on_ground then 1 else 0);
    encode_i32 state f_wall wall;
    encode_i32 state f_prev_jump (if b.jump then 1 else 0);
    encode_i32 state f_frame frame;
    encode_i32 state f_alive (if !alive_now then 1 else 0);
    if x > decode_i32 state f_max_x then encode_i32 state f_max_x x;
    if won_now then encode_i32 state f_won 1;
    Guest_heap.set_bytes t.ctx.Ctx.heap t.base state;
    (* IJON-style position feedback: a coverage site per 32x32-px cell
       (integer site ids: this runs every frame). *)
    Ctx.hit t.ctx (0x4d00 + (977 * (x / 16 / 32)) + (31 * (y / 16 / 32)));
    if won_now then begin
      Ctx.hit t.ctx Site.win;
      raise (Level_solved { frames = frame })
    end
  end

let run_input t data =
  Bytes.iter
    (fun c ->
      let b = buttons_of_byte (Char.code c) in
      for _ = 1 to frames_per_byte do
        step t b
      done)
    data
