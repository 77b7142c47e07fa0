(** Hierarchical mapping — Algorithm 2 of the paper.

    The Plaid mapper augments simulated annealing with motif-granularity
    scheduling: a motif occupies the three ALUs of one PCU according to a
    schedule template (placement variable = PCU x template x anchor cycle);
    standalone and memory nodes place individually with the baseline SA's
    node moves ({!Plaid_mapping.Anneal_core.move} and [swap]).
    Internal motif dependencies then route through the PCU's local router or
    bypass wires, and inter-motif traffic rides the global conveyor belt —
    both fall out of the unified exact-latency router over the Plaid
    resource graph.

    Data-dependency-sorted motifs seed the initial placement on the
    least-loaded PCUs (lines 1-4); the annealing loop un-places one entity
    at a time, draws a placement candidate and a schedule, routes, and
    keeps the best-cost outcome with occasional uphill acceptance
    (lines 5-11).  Line 12, "the driver increments II on failure", is
    {!Plaid_mapping.Driver.search}: this mapper supplies one II attempt
    and the driver walks the IIs, as it does for PathFinder and SA. *)

type params = {
  iterations : int;
  t_start : float;
  t_decay : float;
  restarts : int;
  templates : Motif.kind -> Templates.t list;
      (** swap in {!Templates.strict} for the ablation *)
}

val default : params

val quick : params

type outcome = {
  mapping : Plaid_mapping.Mapping.t option;
  hier : Motif_gen.hier;
  mii : int;
}

val port_bound_admits : Plaid_ir.Dfg.t -> Motif_gen.hier -> ii:int -> bool
(** [false] only when no hierarchical mapping of the cover can exist at
    [ii]: at II 1 a motif fills all three ALUs of its PCU in the only
    slot, so each distinct source outside the motif with a data edge into
    it needs its own global-to-local leg ({!Pcu.global_in_legs}).  Always
    [true] above II 1.  {!map_hier} fails the IIs this rejects without
    annealing. *)

val default_hier : seed:int -> Plaid_ir.Dfg.t -> Motif_gen.hier
(** The motif cover {!map} would generate for this seed — deterministic
    and cheap relative to the anneal, so cache hits can reconstruct an
    {!outcome} (cover, MII) around a stored mapping. *)

val map :
  ?params:params -> plaid:Pcu.t -> seed:int -> Plaid_ir.Dfg.t -> outcome
(** Maps at the lowest II from MII up to the configuration depth, with the
    motif cover {!default_hier} generates.  Each restart under each
    schedule of an II anneals under one [Rng.split] of a stream threaded
    from [Rng.create seed], so II [k] starts from that stream after
    [restarts] splits per schedule of every II below [k], port-bound ones
    included ({!Plaid_mapping.Driver.threaded_stream}). *)

val map_hier :
  ?params:params ->
  plaid:Pcu.t ->
  hier:Motif_gen.hier ->
  seed:int ->
  Plaid_ir.Dfg.t ->
  outcome
(** Like {!map} but with a caller-supplied motif cover (ablations). *)
