(** Modulo Routing Resource Graph: time-extended occupancy of an
    architecture over one initiation interval.

    Each (resource, slot) pair holds at most one distinct signal per cycle.
    A signal is identified by the producing DFG node and the cycles elapsed
    since production, so a multicast route (one producer, several consumers)
    may share wires: the same value at the same moment occupies a resource
    once, no matter how many paths read it.  Functional units are occupied
    exclusively by the node they execute (or by a route-through signal).

    Occupancy is reference-counted so overlapping routes can be released
    independently; [presence] reports the number of *distinct* signals for
    PathFinder-style negotiated congestion, where temporary overuse is legal
    and priced. *)

type signal = { s_node : int; s_elapsed : int }

type cell = {
  mutable exec : int option;              (** node executing on this FU slot *)
  mutable signals : (signal * int) list;  (** signal -> refcount *)
}
(** Raw occupancy of one (resource, slot) cell.  Exposed read-only in
    spirit: all mutation must go through {!place_node} / {!occupy} /
    {!release} so the overuse bookkeeping stays exact.  The router reads
    a cell as one int (what its search can observe there) and keeps no
    reference to it. *)

type ext = ..
(** Open extension slot: higher layers attach per-MRRG state (e.g. the
    router's query memo) without a dependency cycle.  One slot per MRRG;
    the last {!set_ext} wins. *)

type ext += Ext_none

type t

val create : Plaid_arch.Arch.t -> ii:int -> t
(** On a clock-gated architecture (spatial baseline) the MRRG is
    *exclusive*: configuration is frozen for the whole segment, so each
    resource holds one signal / one node across all slots.

    Faults attached to the architecture ({!Plaid_arch.Arch.set_faults}) are
    masked at creation: every faulted (resource, slot) cell is permanently
    {!blocked} — never free, never usable — so placement and routing route
    around broken silicon with no mapper-side changes. *)

val arch : t -> Plaid_arch.Arch.t

val ii : t -> int

val exclusive : t -> bool

val slots : t -> int
(** 1 when exclusive, II otherwise (for congestion iteration). *)

val blocked : t -> res:int -> slot:int -> bool
(** Whether the cell is masked out by a fault on the architecture. *)

(** {1 Functional-unit placement} *)

val fu_free : t -> fu:int -> slot:int -> bool
(** True when nothing (node or routed signal) occupies the FU slot. *)

val place_node : t -> node:int -> fu:int -> slot:int -> unit
(** @raise Invalid_argument if the slot is already occupied. *)

val unplace_node : t -> node:int -> fu:int -> slot:int -> unit

val node_at : t -> fu:int -> slot:int -> int option

(** {1 Wire occupancy} *)

val can_use : t -> res:int -> slot:int -> signal -> bool
(** Hard check: free, or already carrying exactly this signal. *)

val occupy : t -> res:int -> slot:int -> signal -> unit
(** Increments the reference count; soft mode may create overuse (multiple
    distinct signals), which {!overuse} then reports. *)

val release : t -> res:int -> slot:int -> signal -> unit

val cell : t -> int -> int -> cell
(** [cell t res slot] with the slot normalized modulo II (collapsed to the
    single cell when exclusive).  Do not mutate directly. *)

val cells : t -> cell array array
(** Every cell, as [.(res).(slot)] with [slot] already normalized (0 when
    exclusive): for hot loops that compute the slot once.  Read only. *)

val blocked_cells : t -> bool array array
(** The fault mask, indexed like {!cells}.  Read only. *)

val presence : t -> res:int -> slot:int -> int
(** Number of distinct signals (plus 1 if a node executes there). *)

val overuse : t -> int
(** Total capacity violations across the whole MRRG: sum over (res, slot) of
    max(0, presence - 1).  O(1): the count is maintained incrementally by
    every occupancy mutation. *)

val n_overused_cells : t -> int
(** Number of distinct cells with presence >= 2.  O(1). *)

val overused_cells : t -> (int * int * int) list
(** The over-subscribed cells as [(res, slot, presence)], sorted by
    (res, slot) for deterministic iteration.  O(overused cells). *)

val overused_mem : t -> res:int -> slot:int -> bool
(** Whether the (resource, slot) cell currently has presence >= 2.  O(1). *)

val clear : t -> unit

val get_ext : t -> ext

val set_ext : t -> ext -> unit
