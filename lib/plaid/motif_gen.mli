(** Motif generation — Algorithm 1 of the paper.

    Starting from a greedy cover, repeatedly break one motif at random,
    shuffle the standalone nodes, and regrow motifs from them, keeping the
    best cover seen.  Iteration stops when the motif count stops increasing
    for a few rounds or once motifs outnumber standalone nodes (to keep the
    PCU's motif compute unit and ALSU both utilized). *)

type hier = {
  motifs : Motif.t array;
  owner : int array;  (** node id -> index into [motifs], or -1 *)
}

val greedy : Plaid_ir.Dfg.t -> hier
(** The initial greedy cover alone (used by the ablations experiment). *)

val generate : ?rounds:int -> rng:Plaid_util.Rng.t -> Plaid_ir.Dfg.t -> hier
(** Full Algorithm 1.  [rounds] caps break/regrow attempts (default 24). *)

val covered_compute : Plaid_ir.Dfg.t -> hier -> int
(** Number of compute nodes inside motifs (the third column of Table 2). *)

val standalone_nodes : Plaid_ir.Dfg.t -> hier -> int list
(** Nodes outside every motif (memory nodes included). *)

val check : Plaid_ir.Dfg.t -> hier -> (unit, string) result
(** Structural sanity: owners consistent, every motif matches its pattern,
    no node in two motifs. *)
