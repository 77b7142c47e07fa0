(** A mutex-guarded memo table, safe to share across pool tasks.

    For deterministic computations only: the value is computed outside the
    lock, so two racing callers may both compute it, and every caller gets
    whichever value was published first. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** An empty table sized for about [n] keys. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
