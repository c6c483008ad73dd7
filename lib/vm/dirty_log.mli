(** Dirty-page tracking.

    Models the two mechanisms contrasted in §2.3 of the paper: KVM keeps a
    dirty {e bitmap} with one byte per guest page, which a consumer such as
    Agamotto must scan in full to enumerate dirty pages; Nyx additionally
    maintains a {e stack} of dirtied page frame numbers so enumeration is
    proportional to the number of dirty pages only. Both views are kept
    here, and the two [iter_*] functions charge their respective costs so
    the Figure 6 crossover arises from the real data structures. *)

type t

val create : num_pages:int -> t

val mark : t -> int -> bool
(** [mark t pfn] records a write to page [pfn]. Returns [true] when the
    page was clean before (first dirtying pushes onto the stack; repeats
    are absorbed by the bitmap check, as in KVM's dirty logging). *)

val is_dirty : t -> int -> bool
val count : t -> int
(** Number of distinct dirty pages. *)

val num_pages : t -> int

val iter_stack : t -> Nyx_sim.Clock.t -> (int -> unit) -> unit
(** Enumerate dirty pages via Nyx's stack, charging
    {!Nyx_sim.Cost.dirty_stack_entry} per entry. *)

val charge_stack : t -> Nyx_sim.Clock.t -> int
(** Charge what {!iter_stack} charges for its walk and return {!count}:
    with {!stack_entry}, the same walk without a closure, for the
    snapshot engines' per-exec restore. *)

val stack_entry : t -> int -> int
(** [stack_entry t i] is the [i]th page dirtied, [0 <= i < count t]. *)

val iter_bitmap : t -> Nyx_sim.Clock.t -> (int -> unit) -> unit
(** Enumerate dirty pages by scanning the whole bitmap, charging
    {!Nyx_sim.Cost.bitmap_scan_per_page} per page in the VM — the
    Agamotto strategy. *)

val to_list : t -> int list
(** Dirty page frame numbers in dirtying order (no cost; test helper). *)

val clear : t -> unit
(** Reset all entries using the stack (cost-free; folded into the restore
    costs charged by the snapshot engines). *)
