type t = {
  base : (int, Bytes.t) Hashtbl.t;
  mutable incremental : (int, Bytes.t) Hashtbl.t option;
  mutable overlay : (int, Bytes.t) Hashtbl.t;
  sectors : int;
  sector_size : int;
  clock : Nyx_sim.Clock.t;
}

let create ?(sector_size = 512) ~sectors clock =
  if sectors <= 0 then invalid_arg "Disk.create: sectors must be positive";
  {
    base = Hashtbl.create 64;
    incremental = None;
    overlay = Hashtbl.create 64;
    sectors;
    sector_size;
    clock;
  }

let sectors t = t.sectors
let sector_size t = t.sector_size

let check t sector len =
  if sector < 0 || sector >= t.sectors then invalid_arg "Disk: sector out of range";
  if len <> t.sector_size then invalid_arg "Disk: payload must be one sector"

let write_base t sector data =
  check t sector (Bytes.length data);
  Hashtbl.replace t.base sector (Bytes.copy data)

let read_sector t sector =
  check t sector t.sector_size;
  Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.disk_sector_op;
  let lookup table = Hashtbl.find_opt table sector in
  let found =
    match lookup t.overlay with
    | Some s -> Some s
    | None -> (
      match t.incremental with
      | Some inc -> (
        match lookup inc with Some s -> Some s | None -> lookup t.base)
      | None -> lookup t.base)
  in
  match found with
  | Some s -> Bytes.copy s
  | None -> Bytes.make t.sector_size '\000'

let write_sector t sector data =
  check t sector (Bytes.length data);
  Nyx_sim.Clock.advance t.clock Nyx_sim.Cost.disk_sector_op;
  Hashtbl.replace t.overlay sector (Bytes.copy data)

let dirty_sectors t = Hashtbl.length t.overlay

(* An overlay no sector was written to is already what a fresh one would
   be: keep it rather than allocate a table per restore. *)
let clear_overlay t = if Hashtbl.length t.overlay > 0 then t.overlay <- Hashtbl.create 64

let discard_overlays t =
  clear_overlay t;
  t.incremental <- None

let freeze_incremental t =
  (match t.incremental with
  | None -> t.incremental <- Some t.overlay
  | Some inc ->
    (* A second freeze merges the running overlay into the incremental
       layer: newer sectors win. *)
    Hashtbl.iter (fun k v -> Hashtbl.replace inc k v) t.overlay);
  t.overlay <- Hashtbl.create 64

let reset_to_incremental t = clear_overlay t

let drop_incremental t =
  t.incremental <- None;
  clear_overlay t
