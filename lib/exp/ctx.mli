(** Shared experiment context: architectures built once, mappings cached so
    every figure reuses the same compilation results.

    All mappers run with their full-strength parameters and fixed seeds, so
    an experiment run is deterministic end to end.  [outer] models the
    outer-loop trip count multiplying each kernel's inner loop: reported
    cycle counts are [II * (outer * trip - 1) + makespan] (pipeline fill
    amortized over a realistic invocation, as in the paper's
    "II x total loop iterations" accounting). *)

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

val prewarm : t -> unit
(** Force every architecture lazily held by the context.  Call once before
    sharing [t] across pool tasks: concurrent [Lazy.force] raises in
    OCaml 5, and the memo tables are mutex-protected but the lazies are
    not. *)

(** {1 Architectures} *)

val st : t -> Plaid_arch.Arch.t
(** 4x4 spatio-temporal baseline. *)

val st6 : t -> Plaid_arch.Arch.t

val st_ml : t -> Plaid_arch.Arch.t

val plaid2 : t -> Plaid_core.Pcu.t

val plaid3 : t -> Plaid_core.Pcu.t

val plaid_ml : t -> Plaid_core.Pcu.t

(** {1 Mapping results (cached)} *)

val map_st : t -> Plaid_workloads.Suite.entry -> Plaid_mapping.Mapping.t option
(** Best of PathFinder and SA, as the paper selects for baselines. *)

val map_st6 : t -> Plaid_workloads.Suite.entry -> Plaid_mapping.Mapping.t option

val map_st_ml : t -> Plaid_workloads.Suite.entry -> Plaid_mapping.Mapping.t option

val map_plaid :
  t -> Plaid_workloads.Suite.entry -> Plaid_core.Hier_mapper.outcome

val map_plaid3 :
  t -> Plaid_workloads.Suite.entry -> Plaid_core.Hier_mapper.outcome

val map_plaid_ml :
  t -> Plaid_workloads.Suite.entry -> Plaid_core.Hier_mapper.outcome

val map_plaid_generic :
  t ->
  [ `Sa | `Pf ] ->
  Plaid_workloads.Suite.entry ->
  Plaid_mapping.Mapping.t option
(** Generic mappers driving the Plaid fabric (Figure 18). *)

val spatial : t -> Plaid_workloads.Suite.entry -> (Plaid_spatial.Spatial.result, string) result

(** {1 Metrics} *)

val cycles : t -> Plaid_mapping.Mapping.t -> int
(** Outer-scaled execution cycles. *)

val spatial_cycles : t -> Plaid_spatial.Spatial.result -> int

val energy : t -> Plaid_mapping.Mapping.t -> float
(** Outer-scaled fabric energy (pJ). *)

val spatial_energy : t -> Plaid_spatial.Spatial.result -> float

val perf_per_area : t -> Plaid_mapping.Mapping.t -> float

val spatial_perf_per_area : t -> Plaid_spatial.Spatial.result -> float
