(** Energy of mapped kernels (Figure 14). *)

val fabric_energy : Plaid_mapping.Mapping.t -> float
(** Fabric power x execution time, in pJ — what Figure 14 plots. *)
