(** Target execution context: what "compiled" guest code sees.

    Bundles the guest heap (all mutable state), the emulated network stack,
    the coverage map and the virtual clock, plus sanitizer configuration.
    Instrumentation callbacks ({!hit}, {!branch}) are this reproduction's
    analogue of AFL compile-time instrumentation: sites are named by
    strings, and each name is hashed into an edge id once, where a
    target builds its hooks (module top level, or the function that
    builds the hooks), so a hit costs what AFL's does: a clock charge and
    a map update. Only names that carry input text (a command verb, a
    route) are hashed at the hit, through {!edge}. *)

type t = {
  heap : Nyx_vm.Guest_heap.t;
  net : Nyx_netemu.Net.t;
  disk : Nyx_vm.Disk.t;
      (** the emulated block device — state written here survives an
          AFLNet-style restart (cleanup scripts are imperfect) but is
          rolled back by whole-VM snapshots *)
  cov : Coverage.t;
  clock : Nyx_sim.Clock.t;
  asan : bool;  (** bounds-checked heap accesses crash loudly *)
  layout_cookie : int;
      (** Per-campaign randomness standing in for the initial memory
          layout: silent-corruption bugs only crash for unlucky layouts
          (Table 1's dcmtk footnote). *)
  mutable state_code : int;
      (** Protocol state annotation (e.g. last response code) — what
          AFLNet's state-aware scheduling observes. *)
}

exception Crash of { kind : string; detail : string }
(** A detectable memory-safety violation or fatal fault in the target. *)

val create :
  ?asan:bool ->
  ?layout_cookie:int ->
  heap:Nyx_vm.Guest_heap.t ->
  net:Nyx_netemu.Net.t ->
  disk:Nyx_vm.Disk.t ->
  Nyx_sim.Clock.t ->
  t

val of_vm :
  ?asan:bool -> ?layout_cookie:int -> net:Nyx_netemu.Net.t -> Nyx_vm.Vm.t -> t
(** Convenience: heap, disk and clock taken from the VM. *)

val edge : string -> int
(** The edge id of the site named by the string: its [Hashtbl.hash]. *)

val edge_pair : string -> int * int
(** The ids of a two-way branch site: [edge (name ^ ":T")] and
    [edge (name ^ ":F")]. *)

val hit : t -> int -> unit
(** Record an edge at a site id, charging {!Nyx_sim.Cost.edge}. *)

val branch : t -> int * int -> bool -> bool
(** [branch t (on_true, on_false) cond] records the taken direction's id
    (an {!edge_pair}) and returns [cond] — instrument-and-test in one
    expression. *)

val crash : t -> kind:string -> string -> 'a
(** Raise {!Crash}. *)

val work : t -> int -> unit
(** Charge [ns] of plain computation to the clock. *)

val set_state : t -> int -> unit

val state_signature : t -> int
(** Deterministic non-negative mix of the current [state_code] — the
    explicit protocol-state annotation's contribution to
    {!Target.state_hash}. *)
