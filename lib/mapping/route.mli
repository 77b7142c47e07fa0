(** Exact-latency, congestion-aware routing over the MRRG.

    A value produced by the node on FU [src_fu] at absolute cycle [t_src]
    must arrive at FU [dst_fu] exactly when the consumer issues, i.e. after
    [length = t_dst - t_src + dist*ii] cycles.  The search explores states
    (resource, elapsed) where [elapsed] counts latency-1 links crossed since
    production; a state's modulo slot is [(t_src + elapsed) mod ii].
    Padding (waiting in registers) falls out naturally from register
    self-links.

    In [`Hard] mode a resource is usable only if free or already carrying
    the same signal (same producer, same elapsed — multicast sharing).  In
    [`Soft] mode, used by PathFinder, occupied resources are usable at a
    price that grows with present congestion and accumulated history.

    {2 Search}

    {!find} runs A* over the architecture's precomputed hop-distance lower
    bounds ({!Plaid_arch.Arch.route_tables}, one row per FU destination),
    with the indexed heap {!Heap}, per-domain scratch arenas reused across
    calls, latency-table pruning of states that cannot reach the target in
    the remaining budget, and an exact footprint-validated memo for
    repeated queries.

    Per relaxed edge the search reads the slot from a per-search table,
    the FU test and base cost from the route tables, and the cell
    ({!Mrrg.cells}) as one int code, allocating nothing; heap pushes are
    inlined, so no priority is boxed.  The no-revisit rule walks the
    popped state's chain once, marking each (resource, slot) cell it holds
    with the elapsed time there; a neighbour then conflicts exactly when
    its cell is marked at another elapsed time.

    {2 Memo}

    A search records, for every (resource, slot) cell it probes, one int
    code of what it can observe there: [-2] when a node executes there;
    in hard mode [0] when empty, [1 + e] when the only signal is this
    producer's value at elapsed [e], and [-1] otherwise; in soft mode the
    number of distinct signals, plus the history cost in force.  A repeat
    query is answered from the memo when every probed cell still shows
    its code (and history), and the present factor is unchanged or was
    never priced.  Equal codes imply the same search, so the answer is
    the one a fresh search would give; a change the search cannot see
    (a refcount bump, or one foreign signal swapped for another on a
    closed cell) costs no search. *)

type mode =
  | Hard
  | Soft of { present_factor : float; history : float array array }
      (** [history.(res).(slot)] is PathFinder's accumulated cost.  Both
          must be non-negative: the search's lower bound counts every
          step at its base cost, at least 1.0. *)

type path = (int * int) list
(** (resource, elapsed) steps between the two FUs, both excluded. *)

val find :
  Mrrg.t ->
  src_fu:int ->
  src_node:int ->
  t_src:int ->
  dst_fu:int ->
  length:int ->
  mode:mode ->
  (path * float) option
(** Cheapest valid path and its cost, or [None].  [length] must be >= 0:
    a zero-length edge is routable exactly when [src_fu = dst_fu] (the
    empty path, cost 0 — the consumer reads the value the cycle it is
    produced); negative lengths and lengths beyond {!max_detour} are
    unroutable.

    Ties are broken canonically: among equal-cost predecessors the
    smallest state id wins, and the search drains every state whose
    priority does not exceed the target's final distance.  The chosen
    path is therefore a pure function of the query and the MRRG
    occupancy, independent of heap internals and of the memo; the test
    suite checks it against a plain Dijkstra reference. *)

val occupy_path : Mrrg.t -> src_node:int -> t_src:int -> path -> unit

val release_path : Mrrg.t -> src_node:int -> t_src:int -> path -> unit

(** The router's indexed binary min-heap over dense ids [0 .. n-1],
    exposed for its tests.  Pops follow the strict [(key, sec, id)] order,
    so they are a pure function of the contents. *)
module Heap : sig
  type t

  val create : unit -> t

  val reserve : t -> int -> unit
  (** [reserve h n] makes ids [0 .. n-1] addressable.
      @raise Invalid_argument unless the heap is empty. *)

  val push : t -> int -> key:float -> sec:float -> unit
  (** Insert an absent id, or lower a present id's priority: a present
      id's new [(key, sec)] must not exceed its current one. *)

  val pop : t -> int
  (** Remove and return the minimum id, or [-1] when empty. *)

  val clear : t -> unit
end

val max_detour : int
(** Router gives up on lengths beyond this (schedule too loose to be
    sensible); drivers keep lengths small. *)
