(** The map step every front door shares: one typed mapper configuration,
    the cache key derived from it, and one cached, Mapfile-round-tripped
    mapping.  [plaidc], {!Service}, [Plaid_exp.Ctx] and [Plaid_dse.Eval]
    all map through here, so two configurations can never share a key by a
    typo in a hand-written mapper string. *)

type effort = Default | Quick  (** full-strength or reduced (CI-sized) parameters *)

type mapper =
  | Hier of Plaid_core.Pcu.t * effort
      (** {!Plaid_core.Hier_mapper} on a PCU fabric (the Plaid flow) *)
  | Best_of of effort
      (** PathFinder + SA portfolio, lowest II wins (the mesh baselines) *)
  | Pf  (** PathFinder alone, default effort *)
  | Sa  (** simulated annealing alone, default effort *)

val for_fabric : ?effort:effort -> Plaid_core.Pcu.t option -> mapper
(** [Hier] when the fabric has a PCU view, [Best_of] otherwise; [effort]
    defaults to [Default]. *)

val name : mapper -> string
(** The canonical mapper string mixed into cache keys:
    ["hier:default"], ["hier:quick"], ["best_of:pf+sa:default"],
    ["best_of:pf+sa:quick"], ["driver:pf:default"], ["driver:sa:default"].
    Renaming one changes every key cached under it. *)

val run :
  ?pool:Plaid_util.Pool.t ->
  mapper ->
  arch:Plaid_arch.Arch.t ->
  dfg:Plaid_ir.Dfg.t ->
  seed:int ->
  Plaid_mapping.Mapping.t option
(** Map uncached.  [arch] must be the PCU's own architecture for [Hier].
    [pool] speeds up the driver mappers without changing their result. *)

val key :
  mapper -> arch:Plaid_arch.Arch.t -> dfg:Plaid_ir.Dfg.t -> seed:int -> string
(** {!Fingerprint.key} with the mapper string from {!name}. *)

val lookup :
  Cache.t ->
  key:string ->
  (unit -> Plaid_mapping.Mapping.t option) ->
  string option * Cache.source
(** {!Cache.get_or_compute} on mapping blobs: a computed mapping is stored
    as its {!Plaid_mapping.Mapfile} text and a failed one as the empty
    blob.  Answers the raw blob, for callers that ship bytes. *)

val map :
  ?cache:Cache.t ->
  ?pool:Plaid_util.Pool.t ->
  ?compute:(unit -> Plaid_mapping.Mapping.t option) ->
  mapper ->
  arch:Plaid_arch.Arch.t ->
  dfg:Plaid_ir.Dfg.t ->
  seed:int ->
  Plaid_mapping.Mapping.t option
(** {!run} through the cache when one is given.  The mapping returned is
    the one parsed back from the stored blob, so results are identical with
    the cache cold, warm or absent.  [compute] replaces the plain {!run}
    for callers that need more than the mapping (a count, the hierarchical
    outcome); it must compute what {!run} would. *)
