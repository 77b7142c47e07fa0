(** The Plaid Collective Unit and the Plaid CGRA fabric (Section 4).

    Each PCU packs three 16-bit ALUs (the motif compute unit), one ALSU, a
    *local router* that provisions the ALUs' operands collectively, and a
    *global router* forming the inter-PCU conveyor-belt mesh.  Virtual
    bypass paths connect adjacent ALUs (left-to-right), relieving the local
    router for in-order motif schedules.

    Structural rules mirroring the paper's hardware constraints:
    - The global-to-local leg never feeds the local-to-global leg
      combinationally: that datapath loop is exactly what Section 4.2's EDA
      check forbids.  Data may still turn around through a buffering
      register (one-cycle delay).
    - Inter-PCU hops are registered at the global router's output, so every
      hop costs one cycle, like the baseline mesh.
    - Only PCUs on the fabric edge own a scratchpad datapath; an interior
      PCU's ALSU still executes compute/predication ops (relevant from 3x3
      up; in the 2x2 instance every PCU touches memory).

    A PCU may be *hardwired* for one motif kind (domain specialization,
    Section 4.4): the ALU legs of the local router disappear and the motif
    pattern is wired directly between the ALUs; the global datapath keeps
    full reconfigurability. *)

type pcu = {
  row : int;
  col : int;
  alus : int array;        (** the three motif-compute ALU resource ids *)
  alsu : int;
  hardwired : Motif.kind option;
}

type t = {
  arch : Plaid_arch.Arch.t;
  pcus : pcu array;
  rows : int;
  cols : int;
}

val global_in_legs : int
(** Global-to-local legs ([lr_from_gr]) per PCU.  Every value from
    outside a PCU crosses one of them before the local router, its hold
    registers or a hardwired PCU's feed ports pass it to an ALU.  A leg
    carries one signal per slot, so at II 1 a motif filling the three
    ALUs reads at most this many distinct outside values. *)

val build :
  ?specialize:(int -> Motif.kind option) ->
  ?bypass:bool ->
  rows:int ->
  cols:int ->
  name:string ->
  unit ->
  t
(** [specialize] maps a PCU index (row-major) to an optional hardwired motif
    kind; default: none (fully general Plaid).  [bypass] (default true)
    controls the inter-ALU bypass wires — the ablation switch. *)

val pcu_of_fu : t -> int -> int option
(** Index of the PCU owning this FU resource id. *)

val n_fus : t -> int
(** Functional units in the fabric (4 per PCU). *)
