(** Resilience campaigns: repeated fault injection against one kernel on one
    fabric.

    A campaign maps the kernel once on the healthy fabric, then runs [trials]
    independent trials.  Each trial draws a fresh fault set from a
    {!Plaid_util.Rng.derive} stream (trial [i] uses child stream [i], so the
    campaign is byte-identical at any worker count), attaches it to the
    architecture, and either

    - measures {e detection} (without repair): is the pre-fault mapping
      caught — statically by {!Plaid_mapping.Mapping.validate}, dynamically
      by {!Plaid_sim.Cycle_sim.verify} against the golden reference — when
      the silicon under it breaks?  Or

    - measures {e resilience} (with repair): {!Plaid_mapping.Driver.repair}
      re-places the displaced nodes (falling back to a full remap), and the
      repaired mapping must verify bit-exactly on the faulty fabric. *)

type trial = {
  t_index : int;
  t_faults : Plaid_arch.Arch.fault list;
  t_affected : bool;  (** fault set intersects the healthy mapping *)
  t_survives : bool;  (** a verified mapping exists on the faulty fabric *)
  t_incremental : bool;  (** repaired without a full remap *)
  t_ii : int;  (** II on the faulty fabric; 0 when unmapped *)
  t_displaced : int;
  t_rerouted : int;
  t_attempts : int;  (** II attempts of the full-remap fallback *)
  t_verified : bool;  (** bit-exact vs {!Plaid_sim.Reference} *)
  t_detail : string;  (** validation / simulation error; "" when clean *)
}

type t = {
  c_fabric : Plaid_arch.Arch.t;  (** the pristine fabric (for fault names) *)
  c_arch : string;
  c_kernel : string;
  c_seed : int;
  c_faults : int;  (** faults injected per trial *)
  c_trials : int;
  c_repair : bool;
  c_healthy_ii : int;  (** II on the pristine fabric; 0 if unmappable *)
  c_results : trial list;
}

val run :
  ?pool:Plaid_util.Pool.t ->
  arch:Plaid_arch.Arch.t ->
  dfg:Plaid_ir.Dfg.t ->
  spm:Plaid_sim.Spm.t ->
  seed:int ->
  faults:int ->
  trials:int ->
  repair:bool ->
  unit ->
  t
(** Runs a campaign.  Trials are independent and run on [?pool] when given;
    the report is identical for every pool size and with tracing on or off.
    The input SPM is never mutated.

    Detection campaigns ([repair = false]) draw from every fault kind,
    including faulty SPM banks.  Repair campaigns draw only fabric faults
    (FUs, ports, links, config bits): a broken SPM bank corrupts whatever
    placement reads it, so no remap can repair it — it is detectable, not
    survivable. *)

(** {1 Summary statistics} *)

val yield : t -> float
(** Fraction of trials that end with a verified mapping on the faulty
    fabric (without repair: trials the fault set did not touch). *)

val ii_degradation : t -> float
(** Mean (faulty II / healthy II) over surviving trials; 0 when none. *)

val incremental_repairs : t -> int

val full_remaps : t -> int
(** Affected trials that survived only through a full remap. *)

val detected : t -> int
(** Affected trials whose stale mapping was caught by validation or
    simulation (meaningful without repair). *)

val repair_effort : t -> int
(** Total displaced nodes + rerouted edges + fallback II attempts, the
    deterministic proxy for repair cost. *)

(** {1 Reports} *)

val json : t -> Plaid_obs.Json.t

val to_json_string : t -> string

val pp : Format.formatter -> t -> unit
(** Human-readable table plus the summary line. *)
