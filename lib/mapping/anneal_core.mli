(** The annealer shared by the simulated-annealing mapper ({!Anneal}) and
    the hierarchical mapper ([Plaid_core.Hier_mapper]).

    Both anneal placement and timing over a {!Route_table.t}.  One move is
    one transaction: release the edges the move touches, apply it, re-route
    those edges, then keep it by the Metropolis test or roll everything
    back.  The state record, the node moves, the transaction, the accept
    test, the plateau-aborting temperature loop and the validating restart
    loop live here, once; each mapper keeps its initial placement, its draw
    order and any move of its own.  Deterministic given the RNG. *)

type state = {
  arch : Plaid_arch.Arch.t;
  g : Plaid_ir.Dfg.t;
  ii : int;
  mrrg : Mrrg.t;
  times : int array;  (** node -> cycle *)
  place : int array;  (** node -> FU *)
  table : Route_table.t;  (** the edges' routes over [mrrg], [times] and [place] *)
}

val to_mapping : state -> Mapping.t
(** Copies the current timing, placement and routes out of the state. *)

val swap : state -> int -> int -> rng:Plaid_util.Rng.t -> temp:float -> bool
(** [swap st v w] exchanges the FUs of nodes [v] and [w] as one {!try_move}
    over their edges, or returns [false] without one when that is not
    legal (same node or FU, an unsupported op, a taken slot). *)

val move : state -> int -> earliest:int -> rng:Plaid_util.Rng.t -> temp:float -> bool
(** [move st v ~earliest] draws whether to retime node [v] (within its
    {!Schedule.slack}, two cycles of its time and not before [earliest])
    or re-place it (on a {!Greedy.compatible_fus} FU), and proposes that
    as one {!try_move} over [v]'s edges; [false] without one when nothing
    changes or the target FU slot is taken.

    SA passes [min_int]: slack may reach below cycle 0, and Fig 18's SA
    mapping of seidel on plaid_2x2 has a node at cycle [-1].  The
    hierarchical mapper passes [0], the floor its motif anchors keep. *)

val try_move :
  Route_table.t ->
  edges:int list ->
  apply:(unit -> bool) ->
  undo:(unit -> unit) ->
  rng:Plaid_util.Rng.t ->
  temp:float ->
  bool
(** One annealing move over [edges] (edge indices, routed in list order).
    Records the old cost, snapshots and releases [edges], runs [apply]
    (which mutates placement and timing, and returns [false] to decline),
    then routes [edges].  The move is kept, and [true] returned, only when
    [apply] returned [true] and the Metropolis test passes: a new cost no
    higher than the old one always passes; otherwise the test draws one
    [Rng.float] and passes with probability [exp ((old - new) / temp)].
    A declined move draws nothing, but its edges are still routed and
    released before the rollback: see {!Route_table.total_cost} on why
    that round trip is part of the result.  On rejection [edges] are
    released, [undo] restores placement and timing, and the snapshot paths
    are re-occupied without searching. *)

val run :
  Route_table.t ->
  iterations:int ->
  t_start:float ->
  t_decay:float ->
  step:(temp:float -> unit) ->
  float
(** The temperature loop: calls [step] (one move at the current
    temperature, cooling geometrically by [t_decay] after each) until no
    edge is unrouted, [iterations] moves are spent, or
    [max 300 (iterations / 3)] moves in a row fail to lower the best cost
    seen.  Adds the move count to the current {!Explain} attempt, logs one
    [Plaid_obs.Log] debug line (kernel, II, unrouted edges, moves) when
    edges are left unrouted, and returns the final temperature. *)

val first_success :
  restarts:int ->
  rng:Plaid_util.Rng.t ->
  (Plaid_util.Rng.t -> Mapping.t option) ->
  Mapping.t option
(** Runs the attempt under up to [restarts] streams, one [Rng.split rng]
    per restart, and returns the first mapping.
    @raise Invalid_argument if that mapping fails {!Mapping.validate}. *)
