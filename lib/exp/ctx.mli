(** Shared experiment context: fabrics built once, mappings cached so
    every figure reuses the same compilation results.

    All mappers run with their full-strength parameters and fixed seeds, so
    an experiment run is deterministic end to end.  The figures price the
    cached mappings with {!Plaid_model.Energy} at the context's {!outer}
    trip count (default {!Plaid_model.Energy.default_outer}). *)

type t

val create :
  ?seed:int ->
  ?outer:int ->
  ?pool:Plaid_util.Pool.t ->
  ?cache:Plaid_serve.Cache.t ->
  unit ->
  t
(** [?pool] is forwarded to the baseline mapper portfolio ([Driver.best_of])
    and the generic-mapper II search; mapping results are identical for any
    pool size (see {!Plaid_mapping.Driver}).

    [?cache] attaches a persistent mapping cache: every per-kernel mapping
    goes through {!Plaid_serve.Compile.map}, keyed by its semantic
    fingerprint ({!Plaid_serve.Fingerprint}) and served from the cache
    when warm.  Experiment reports are byte-identical
    with the cache cold, warm, or absent — mappings travel through the
    exact mapfile blob round-trip in all cached cases, and the determinism
    gate enforces the equality. *)

val outer : t -> int

val pool : t -> Plaid_util.Pool.t option

(** {1 Fabrics} *)

val fabric : t -> Plaid_core.Fabrics.fabric -> Plaid_core.Fabrics.built
(** The context's copy of a named fabric.  {!create} builds every entry of
    {!Plaid_core.Fabrics.all} eagerly, so pool tasks can share [t]
    without racing to build one. *)

(** {1 Mapping results (cached)} *)

val map :
  t ->
  Plaid_core.Fabrics.fabric ->
  Plaid_workloads.Suite.entry ->
  Plaid_mapping.Mapping.t option
(** The fabric's own mapper ({!Plaid_serve.Compile.for_fabric}): the
    hierarchical mapper on the Plaid fabrics, the best of PathFinder and
    SA on the meshes, as the paper selects for baselines. *)

val map_plaid_generic :
  t ->
  [ `Sa | `Pf ] ->
  Plaid_workloads.Suite.entry ->
  Plaid_mapping.Mapping.t option
(** Generic mappers driving the Plaid fabric (Figure 18). *)

val spatial : t -> Plaid_workloads.Suite.entry -> (Plaid_spatial.Spatial.result, string) result
