(** Machine-readable exports of the area model.

    The ASCII tables ({!Report.pp}) are for humans; these JSON forms are
    for downstream tooling — the DSE report embeds {!area_json} per
    candidate (its energies come from {!Plaid_dse.Eval}, not from here).
    Every export is a pure function of its inputs with deterministic key
    order, so serialized forms are byte-stable. *)

val report_json : unit:string -> Report.t -> Plaid_obs.Json.t
(** [{"unit": ..., "categories": {...}, "total": ...}] with categories in
    the report's own order. *)

val area_json : Plaid_arch.Arch.t -> spm_kb:int -> Plaid_obs.Json.t
(** Fabric breakdown (um^2) plus ["spm_um2"] and ["system_um2"]. *)
