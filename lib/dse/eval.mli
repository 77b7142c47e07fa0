(** The real candidate evaluator behind {!Search.oracle}.

    Maps every requested (candidate, kernel) pair with the production
    mappers — {!Plaid_mapping.Driver.best_of} (PathFinder + SA portfolio)
    for meshes, {!Plaid_core.Hier_mapper} for Plaid fabrics — and scores
    the outcome with {!Plaid_model}.  Batches fan out over a
    {!Plaid_util.Pool}; each candidate draws its mapping seed from an
    {!Plaid_util.Rng.derive} stream indexed by a digest of its canonical
    name, so the stream is independent of candidate order, strategy, and
    worker count.

    With a {!Plaid_serve.Cache}, every mapping goes through
    {!Plaid_serve.Compile.map}: keyed by {!Plaid_serve.Fingerprint} (DFG x
    architecture x mapper x seed) and stored as a mapfile blob — failed mappings as the empty blob — so
    campaigns are resumable and a cache-warm re-run performs zero mapper
    invocations (the [dse_mapper_invocations] counter stays 0).  Cache
    state never leaks into the report: cold and warm runs are
    byte-identical. *)

type t

val create :
  ?seed:int ->
  ?outer:int ->
  ?quick:bool ->
  ?pool:Plaid_util.Pool.t ->
  ?cache:Plaid_serve.Cache.t ->
  unit ->
  t
(** [seed] defaults to 2025; [outer] (outer-loop trip count for the energy
    model) to {!Plaid_model.Energy.default_outer}; [quick] selects the
    reduced-effort mapper parameter sets (CI-sized campaigns). *)

val suites : (string * Plaid_workloads.Suite.entry list) list
(** ["paper"] (the 30-DFG Table 2 suite), ["quick"] (3 kernels, CI-sized),
    ["ml"] (the machine-learning subset). *)

val suite_names : string list

val find_suite : string -> Plaid_workloads.Suite.entry list option

type kernel_outcome = {
  ko_kernel : string;
  ko_ok : bool;
  ko_ii : int;        (** 0 when unmapped *)
  ko_energy : float;  (** system energy (fabric + SPM) over the outer-scaled run, pJ *)
  ko_ops : int;       (** compute-node executions over the same run *)
  ko_epo : float;     (** energy per operation, pJ/op; 0 when unmapped *)
}

type candidate_result = {
  cr_cand : Space.candidate;
  cr_point : Pareto.point;
  cr_kernels : kernel_outcome array;  (** suite order *)
}

type campaign = {
  c_space : string;
  c_suite : string;
  c_strategy : Search.strategy;
  c_seed : int;
  c_outer : int;
  c_quick : bool;
  c_n_kernels : int;
  c_evaluated : candidate_result list;   (** sorted by candidate name *)
  c_frontier : string list;              (** candidate names, sorted *)
  c_dominated : (string * string) list;  (** (name, dominated-by), sorted *)
  c_pruned : string list;                (** skipped without full evaluation *)
  c_kernel_evals : int;
}

val run :
  t ->
  space:Space.t ->
  suite_name:string ->
  suite:Plaid_workloads.Suite.entry list ->
  strategy:Search.strategy ->
  campaign
