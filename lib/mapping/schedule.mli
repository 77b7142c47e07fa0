(** Modulo scheduling: absolute start cycles for every DFG node.

    The schedule satisfies, for every edge, [t(dst) >= t(src) + 1 - dist*ii]
    (unit operation latency), and smooths per-slot pressure so that no
    modulo slot holds more nodes than the architecture has functional units
    (total and memory-class counted separately).  Placement then only has to
    pick *which* FU, not *when*. *)

val slot : ii:int -> int -> int
(** [slot ~ii t] is the modulo slot of absolute cycle [t], in [\[0, ii)]
    even for a negative [t] (the annealers may retime a node before cycle
    0).  The one slot computation every mapper, model and simulator uses. *)

val compute :
  ?lat:int ->
  ?lat_for:(Plaid_ir.Dfg.edge -> int) ->
  Plaid_ir.Dfg.t ->
  ii:int ->
  cap:Plaid_ir.Analysis.capacity ->
  int array option
(** [None] when no pressure-feasible schedule was found at this II (the
    caller then increases II).  Deterministic.

    [lat] (default 1) is the spacing assumed for same-iteration edges.
    Scheduling with [lat = 2] leaves every producer-consumer pair a
    two-cycle routing budget, which lets placement put them up to two mesh
    hops apart — PathFinder uses this because it cannot retime nodes the
    way the annealer can.  Loop-carried edges always use spacing 1 so the
    recurrence bound is not inflated artificially.  [lat_for] overrides the
    spacing per edge (the spatial baseline keeps recurrence cycles at
    spacing 1 while padding everything else). *)

val slack : Plaid_ir.Dfg.t -> times:int array -> ii:int -> node:int -> int * int
(** [(lo, hi)] bounds within which the node's time can move while keeping
    every incident edge constraint satisfied (other nodes fixed).  Used by
    the annealer's retiming move. *)
