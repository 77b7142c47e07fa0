(** Activity-based fabric power for a mapped kernel (Figure 2).

    Dynamic power combines: configuration readout (every cycle on
    spatio-temporal fabrics, clock-gated to zero on spatial ones), FU
    firings, wire/register traffic from the actual routes, and scratchpad
    accesses.  Leakage is charged per um^2 on everything, folded into each
    category.  All rates are per-II averages — a modulo schedule repeats
    its activity pattern every II cycles. *)

val fabric : Plaid_mapping.Mapping.t -> Report.t
(** Categories: compute, compute_config, comm, comm_config, regs. *)

val fabric_total : Plaid_mapping.Mapping.t -> float

val spm : Plaid_mapping.Mapping.t -> kb:int -> float
(** Scratchpad access + leakage power for this mapping. *)

val system : Plaid_mapping.Mapping.t -> spm_kb:int -> float

val idle_fabric : Plaid_arch.Arch.t -> float
(** Leakage-only power of an unmapped fabric: the power floor
    {!Plaid_dse.Eval} uses to bound a candidate's energy before mapping. *)
