(** Initial placement shared by the baseline mappers: nodes in topological
    order, each on a compatible free FU chosen to minimize Manhattan
    distance to its already-placed same-iteration predecessors. *)

val initial_place :
  Mrrg.t ->
  Plaid_ir.Dfg.t ->
  times:int array ->
  rng:Plaid_util.Rng.t ->
  int array option
(** Returns the node -> FU assignment (and records it in the MRRG), or
    [None] if some node has no compatible free slot. *)

val manhattan : int * int -> int * int -> int
(** Manhattan distance between two [(row, col)] tiles. *)

val compatible_fus : Mrrg.t -> Plaid_ir.Dfg.t -> node:int -> slot:int -> int list
(** FUs that support the node's op and are free at [slot]. *)
