(** Fabric and system area from the architecture structure (Figure 13). *)

val category_of_class : string -> Report.category
(** FUs are compute; ports and routing registers are comm; everything else
    (data registers) is regs. *)

val fabric : Plaid_arch.Arch.t -> Report.t
(** Categories: compute (FUs), compute_config, comm (ports and routing
    registers), comm_config, regs (data registers). *)

val fabric_total : Plaid_arch.Arch.t -> float

val spm : kb:int -> float

val system : Plaid_arch.Arch.t -> spm_kb:int -> float
(** Fabric plus scratchpad. *)
