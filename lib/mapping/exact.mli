(** Exact placement by branch-and-bound, for small DFGs.

    Given a modulo schedule, enumerate node-to-FU assignments in topological
    order, routing each edge as soon as both endpoints are placed.  Both
    placements *and* routes are backtracking dimensions: every valid
    exact-latency path is enumerated lazily, so a path choice that blocks a
    later edge is undone rather than mistaken for infeasibility (committing
    to the router's single cheapest path is how the differential fuzzer once
    caught this module contradicting PathFinder).  Complete for the given
    schedule: if [find] returns [None] with an unexhausted budget, no
    placement routes under that schedule.

    Exponential in the worst case — intended for DFGs of at most a dozen
    nodes, where it certifies the heuristic mappers' results (the test
    suite asserts SA reaches the exact minimum II on generated kernels). *)

type outcome = {
  mapping : Mapping.t option;
  explored : int;      (** search states visited *)
  exhausted : bool;    (** search budget ran out before completion *)
}

val find :
  Plaid_arch.Arch.t ->
  Plaid_ir.Dfg.t ->
  ii:int ->
  times:int array ->
  budget:int ->
  outcome

val min_ii :
  Plaid_arch.Arch.t ->
  Plaid_ir.Dfg.t ->
  budget:int ->
  (int * Mapping.t) option
(** Smallest II, from MII up to the configuration depth, with a complete
    exact mapping; tries the padded schedule first like the drivers do. *)
