(* [image] is the captured image the blob was last set from or captured
   to, for as long as nothing has written the blob since; [Bytes.empty]
   otherwise. While it holds, a restore from that image has nothing to
   copy and a capture can hand it out again: images are never written. *)
type t = { blob : Bytes.t; mutable image : Bytes.t }

let create ~size = { blob = Bytes.make size '\000'; image = Bytes.empty }

let size t = Bytes.length t.blob

let write t off data =
  if off < 0 || off + Bytes.length data > Bytes.length t.blob then
    invalid_arg "Device_state.write: out of range";
  Bytes.blit data 0 t.blob off (Bytes.length data);
  t.image <- Bytes.empty

let read t off len =
  if off < 0 || off + len > Bytes.length t.blob then
    invalid_arg "Device_state.read: out of range";
  Bytes.sub t.blob off len

let capture t =
  if t.image != Bytes.empty then t.image
  else begin
    let image = Bytes.copy t.blob in
    t.image <- image;
    image
  end

let apply t saved =
  if Bytes.length saved <> Bytes.length t.blob then
    invalid_arg "Device_state.restore: size mismatch";
  if saved != t.image then begin
    Bytes.blit saved 0 t.blob 0 (Bytes.length saved);
    t.image <- saved
  end

let restore_fast t clock saved =
  Nyx_sim.Clock.advance clock Nyx_sim.Cost.device_fast_reset;
  apply t saved

let restore_serialized t clock saved =
  Nyx_sim.Clock.advance clock Nyx_sim.Cost.device_serialize_reset;
  apply t saved
