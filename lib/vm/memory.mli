(** Guest-physical memory in a two-level page table.

    A directory holds one leaf per 256-page range, allocated when the
    first page in its range materializes; a lookup is two array reads.
    Pages are materialized on first write; unmaterialized pages read as
    zeroes. Every write marks the touched pages in the {!Dirty_log}, which
    is what the snapshot engines consume. Reads and writes are cost-free at
    this layer — costs are charged by the callers that model an actual
    mechanism (guest heap accessors, snapshot engines). *)

type t

exception Fault of { addr : int; size : int }
(** Guest-physical access outside the address space — the simulated
    equivalent of an EPT violation the fuzzer reports as a crash. *)

val create : num_pages:int -> t
val num_pages : t -> int
val size_bytes : t -> int
val dirty : t -> Dirty_log.t

val read : t -> int -> int -> bytes
(** [read t addr len] may span pages. @raise Fault on out-of-range. *)

val write : t -> int -> bytes -> unit
(** May span pages; marks all touched pages dirty. @raise Fault. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_i32 : t -> int -> int
val write_i32 : t -> int -> int -> unit
val read_i64 : t -> int -> int
val write_i64 : t -> int -> int -> unit
(** Little-endian fixed-width accessors ([i64] uses OCaml's 63-bit int).
    Accesses contained in a single page take a non-allocating fast path;
    page-straddling accesses fall back to {!read}/{!write} with identical
    semantics (zero-fill reads, per-page dirty marking, {!Fault}s). *)

val clear_dirty : t -> unit

(** {1 Snapshot-engine interface}

    These bypass dirty tracking: they implement snapshot create/restore
    rather than guest execution. Page numbers must lie in
    [\[0, num_pages)]. *)

val page_content : t -> int -> bytes option
(** [None] when the page was never materialized (all zero). The returned
    bytes are a copy. *)

val set_page : t -> int -> bytes -> unit
(** Overwrite a page without marking it dirty. *)

val drop_page : t -> int -> unit
(** Return a page to the pristine zero state without marking it dirty. *)

val materialized : t -> (int * bytes) Seq.t
(** All materialized pages in page order (live references; do not
    mutate). *)

val materialized_count : t -> int
