(** Incremental routing state shared by the annealing-style mappers.

    Holds, for one DFG on one MRRG, the current path (if any) of every edge,
    the running wire cost, and the unrouted count.  The [times] and [place]
    arrays are shared by reference with the caller: mappers mutate them
    (moves/retiming) and then re-route the affected edges through this
    table.  Hard-capacity routing only. *)

type t

val create :
  Mrrg.t -> Plaid_ir.Dfg.t -> times:int array -> place:int array -> t
(** The MRRG must already contain the node placements; no edges routed yet. *)

val route_edge : t -> int -> bool
(** Route edge [i] (index into the DFG edge array) with the hard router and
    occupy its path.  The edge must currently be unrouted.  False if no
    path exists.  Ordering-only edges carry no data: they succeed iff their
    timing constraint holds (counted like routes so schedule violations
    show up in the cost). *)

val route_all : t -> unit
(** Route every currently-unrouted edge, in index order. *)

val release_edge : t -> int -> unit
(** Free edge [i]'s path (no-op if unrouted). *)

val restore_edge : t -> int -> Route.path -> float -> unit
(** Re-occupy a previously-valid path without searching (undo support). *)

val snapshot_edges : t -> int list -> (int * Route.path option * float) list
(** [(edge, path, cost)] for each listed edge, for {!restore_edge}. *)

val incident : t -> int -> int list
(** Edge indices touching a node (self-loops listed once). *)

val unrouted : t -> int

val total_cost : t -> float
(** [1000 * unrouted + length shaping of each unrouted edge + total wire
    cost] — the annealing objective.  Costs time proportional to the
    unrouted edges, not to all edges.

    The unrouted terms are integers, but the wire term is a running float
    sum: {!route_edge} and {!restore_edge} add an edge's cost and
    {!release_edge} subtracts it.  Path costs are not all integers (a
    register hop costs 1.2), so a route-then-release round trip need not
    return the sum to the same bits, and its last bits depend on the
    table's route/release history.  Annealers compare costs with [<=], so
    that history is part of the mapping they produce. *)

val dfg : t -> Plaid_ir.Dfg.t

val ii : t -> int

val path : t -> int -> Route.path option

val routes : t -> Mapping.route_entry list
(** All routed edges, for assembling a {!Mapping.t}. *)
