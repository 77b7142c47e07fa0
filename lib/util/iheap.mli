(** Indexed binary min-heap over dense integer ids with decrease-key.

    Each id holds at most one slot, so the heap never accumulates stale
    entries and a search pops each state exactly once.

    Ordering is lexicographic on [(key, sec, id)] — ties between equal
    priorities resolve by the secondary key and then by id, making pop
    order fully deterministic and independent of insertion history.

    The structure is allocation-free after warm-up: [reserve] grows the
    flat backing arrays, [clear] is O(live entries), and both are designed
    for embedding in a reusable per-domain scratch arena. *)

type t

val create : unit -> t

val reserve : t -> int -> unit
(** [reserve h n] ensures ids [0 .. n-1] are addressable. *)

val capacity : t -> int

val size : t -> int

val is_empty : t -> bool

val contains : t -> int -> bool

val key : t -> int -> float
(** Last key set for an id (meaningful only while {!contains}). *)

val insert : t -> int -> key:float -> sec:float -> unit
(** Insert, or update in place when the id is already present (moving it
    whichever direction the new priority requires).
    @raise Invalid_argument on a negative id. *)

val decrease : t -> int -> key:float -> sec:float -> unit
(** Decrease-key: update only if the new priority is not larger, then sift
    up.  @raise Invalid_argument if the id is not present. *)

val pop : t -> int
(** Remove and return the minimum-(key, sec, id) element, or [-1] when
    empty. *)

val clear : t -> unit
(** Empty the heap; resets presence flags only for contained ids. *)
