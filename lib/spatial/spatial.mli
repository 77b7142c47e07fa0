(** Spatial-CGRA execution model: partition, map each segment fully
    spatially (one node per FU, frozen configuration), run segments
    sequentially over the whole trip count.

    Performance and power are priced by {!Plaid_model.Energy} on
    [Segments mappings]: pipeline fill plus one iteration per II for each
    segment, a reconfiguration stall per segment switch, and per-segment
    activity with clock-gated configuration (the defining trait of
    energy-minimal spatial CGRAs). *)

type result = {
  part : Partition.t;
  mappings : Plaid_mapping.Mapping.t list;  (** one per segment *)
}

val arch : unit -> Plaid_arch.Arch.t
(** The 4x4 spatial fabric: baseline mesh, single config entry, clock
    gated. *)

val spm_ports : int
(** Scratchpad bank ports (4): a spatial segment with more memory
    operations than ports is throughput-limited to
    [ceil(mem_ops / ports)] cycles per iteration even though every PE has
    its own node. *)

val run : ?seed:int -> Plaid_ir.Dfg.t -> (result, string) Stdlib.result
(** Partitions with shrinking budgets until every segment maps. *)
