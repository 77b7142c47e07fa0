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
    bounds ({!Plaid_arch.Arch.route_tables}), with an indexed heap with
    decrease-key, per-domain scratch arenas reused across calls,
    latency-table pruning of states that cannot reach the target in the
    remaining budget, and an exact footprint-validated memo for repeated
    queries.

    Per relaxed edge the search reads the slot from a per-search table,
    the FU test and base cost from the route tables, and the cell
    ({!Mrrg.cells}) by pattern match and int comparison, allocating
    nothing.  The no-revisit rule walks the popped state's chain once,
    marking each (resource, slot) cell it holds with the elapsed time
    there; a neighbour then conflicts exactly when its cell is marked at
    another elapsed time.  A memo miss records its footprint in arena
    buffers and stores it as three flat arrays. *)

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

val max_detour : int
(** Router gives up on lengths beyond this (schedule too loose to be
    sensible); drivers keep lengths small. *)
