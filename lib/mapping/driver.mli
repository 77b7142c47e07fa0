(** II search: the modulo-scheduling outer loop shared by every mapper.

    Starting at MII = max(ResMII, RecMII), schedule the DFG, invoke the
    chosen mapper, and accept the first II with a valid mapping.  II is
    bounded by the configuration-memory depth — a spatio-temporal CGRA
    cannot hold more distinct cycle configurations than it has entries. *)

type algo =
  | Sa of Anneal.params
  | Pf of Pathfinder.params

type outcome = {
  mapping : Mapping.t option;
  mii : int;
  attempts : int;  (** IIs tried *)
}

val search :
  ?pool:Plaid_util.Pool.t ->
  ?limit:int ->
  name:string ->
  seed:int ->
  mii:int ->
  max_ii:int ->
  (int -> Mapping.t option) ->
  outcome
(** The one II search every mapper runs through.  [attempt ii] tries one
    II and must be a pure function of [ii]: its result may not depend on
    which attempts ran before it, so attempts can run in any order.  IIs
    are tried upward from [mii] to [max_ii], or to [limit] when that is
    lower, and the first that maps wins.  [name] labels the attempts
    ("pf", "sa", "hier", "spatial") and [seed] is only recorded.

    The search owns the [driver.map] and [driver.ii_attempt] trace spans,
    one {!Explain.with_attempt} per II, and the [driver/ii_attempts],
    [driver/mapped] and [driver/wasted_ii_attempts] counters.  With
    [~pool], a window of consecutive IIs (pool width) is attempted
    speculatively and the lowest that maps wins, so the outcome — mapping,
    MII, and attempt count — is the sequential one for every pool size.
    Logs nothing: a caller that treats a failed search as news warns. *)

val threaded_stream : seed:int -> mii:int -> draws:(int -> int) -> int -> Plaid_util.Rng.t
(** [threaded_stream ~seed ~mii ~draws ii] is the stream a mapper that
    threads one RNG through its IIs holds when it reaches [ii]:
    [Rng.create seed] after [draws i] {!Plaid_util.Rng.split}s for each
    [i] in [[mii, ii)].  [draws i] must be the number of splits a failed
    attempt at [i] takes, and nothing else may draw from the threaded
    stream.  This turns such a mapper's attempt into a pure function of
    its II, as {!search} requires. *)

val map :
  ?pool:Plaid_util.Pool.t ->
  algo:algo -> arch:Plaid_arch.Arch.t -> dfg:Plaid_ir.Dfg.t -> seed:int -> unit -> outcome
(** {!search} from MII to the configuration depth with the PF or SA
    attempt.  Each II's RNG stream is derived by index from the seed
    ([Rng.derive]), so the outcome is bit-identical with and without
    [~pool].  Warns when no II maps. *)

(** {1 Fault repair} *)

type repair_outcome = {
  repaired : Mapping.t option;  (** [None] when even a full remap fails *)
  incremental : bool;  (** repaired at the same II without a full remap *)
  displaced : int;  (** nodes the faults forced off their resources *)
  rerouted : int;  (** data edges rerouted by the incremental pass *)
  rattempts : int;  (** II attempts of the full-remap fallback; 0 when incremental *)
}

val repair :
  ?pool:Plaid_util.Pool.t ->
  algo:algo ->
  arch:Plaid_arch.Arch.t ->
  mapping:Mapping.t ->
  seed:int ->
  unit ->
  repair_outcome
(** Repairs [mapping] (made on a healthy fabric) against [arch], which must
    be the same architecture with faults attached
    ({!Plaid_arch.Arch.set_faults}).  First attempts an incremental repair at
    the same II and schedule: nodes and routes untouched by the faults stay
    put, displaced nodes are greedily re-placed near their neighbours, and
    only broken edges are rerouted.  When the local fix cannot close, falls
    back to a full {!map} on the degraded fabric (fresh II search, so the II
    may rise).  Fully deterministic: no randomness in the incremental pass,
    and the fallback inherits {!map}'s seed discipline. *)

val best_of :
  ?pool:Plaid_util.Pool.t ->
  ?restarts:int ->
  algos:algo list -> arch:Plaid_arch.Arch.t -> dfg:Plaid_ir.Dfg.t -> seed:int -> unit -> outcome
(** Runs several mappers and keeps the lowest-II mapping — the paper selects
    the better of PathFinder and SA for its baselines (Section 6.3).

    [~restarts] (default 1) runs each algorithm that many times under
    distinct derived seeds.  The entries are walked one after another in a
    fixed algo-major, restart-minor order.  The first runs the full II
    search; once some entry has mapped at II [b], each later one searches
    only IIs strictly below [b], and the walk stops as soon as [b] equals
    MII.  An entry that cannot win is never started: it gets no
    [driver.map] span, and a search cut short by that bound logs no "no
    mapping" warning.  [~pool] is passed to every entry's {!map}, so the
    speculative II window still runs on it.

    The result equals the unbounded portfolio reduced with lowest II
    winning and ties kept by the earlier entry: an attempt at one II is a
    pure function of (algorithm, fabric, kernel, seed, II), so the bounded
    search finds exactly the mapping, and counts exactly the attempts, the
    full search would whenever that mapping could win.  When nothing maps,
    the last entry's outcome is returned, as that reduction does.  So the
    result is also the same with and without a pool, at any width. *)
