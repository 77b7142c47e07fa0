(** One function per table/figure of the paper's evaluation (Section 7).

    Each experiment prints the regenerated rows/series and returns its
    headline metrics as a name->value list, so tests and EXPERIMENTS.md can
    assert on the same numbers a human reads. *)

type summary = (string * float) list

val table2 : Ctx.t -> summary
(** Workload characteristics: nodes, compute nodes, motif-covered compute
    nodes for all 30 DFGs (paper values printed alongside). *)

val fig2 : Ctx.t -> summary
(** Power distribution of the baseline ST CGRA and Plaid, suite-averaged;
    headline: Plaid fabric power reduction. *)

val fig12 : Ctx.t -> summary
(** Performance normalized to the spatio-temporal baseline, per kernel and
    per-domain geomeans. *)

val fig13 : Ctx.t -> summary
(** Plaid fabric area breakdown and total. *)

val fig14 : Ctx.t -> summary
(** Fabric energy normalized to ST. *)

val fig15 : Ctx.t -> summary
(** Performance per area normalized to ST. *)

val fig16 : Ctx.t -> summary
(** Application-level (3 DNNs): spatial vs Plaid energy and perf/area. *)

val fig17 : Ctx.t -> summary
(** 3x3 vs 2x2 Plaid scaling (recurrence-bound kernels excluded). *)

val fig18 : Ctx.t -> summary
(** Plaid mapper vs generic PathFinder/SA on the Plaid fabric. *)

val fig19 : Ctx.t -> summary
(** Domain specialization: ST, ST-ML, Plaid, Plaid-ML on the ML kernels. *)

val utilization : Ctx.t -> summary
(** Routing-resource utilization, ST crossbar vs Plaid's two-level network —
    the quantitative form of Section 3.1's overprovisioning argument. *)

val ablations : Ctx.t -> summary
(** Design-choice ablations: greedy-only motif generation, strict schedule
    templates, and no bypass paths. *)

val dse : Ctx.t -> summary
(** Beyond the paper: synthetic DFG families mapped across fabric sizes —
    how the hierarchical fabric scales on chains, trees, stencils,
    reductions, and random DAGs. *)

val resilience : Ctx.t -> summary
(** Beyond the paper: fault-injection campaigns ({!Plaid_fault.Campaign})
    with repair on plaid_2x2 vs st_4x4 — yield, II degradation and repair
    effort as the injected fault count grows. *)

val verify_all : Ctx.t -> summary
(** Cycle-level simulation of every cached mapping against the golden
    reference (and sequential-segment verification for the spatial
    baseline).  Returns pass/fail counts; prints any mismatch. *)

val runners : (string * (Ctx.t -> summary)) list
(** Every experiment, in paper order, keyed by CLI name. *)

val run :
  ?pool:Plaid_util.Pool.t ->
  Ctx.t -> (string * (Ctx.t -> summary)) list -> (string * summary) list
(** Run a selection of experiments.  Each experiment's output is captured
    in a private buffer ({!Ascii.with_capture}) and replayed in selection
    order, so the printed report and the returned summaries are
    byte-identical whether the experiments execute sequentially or as
    parallel pool tasks.  With [~pool], independent experiments race on the
    pool's workers over the shared context. *)

val all : ?pool:Plaid_util.Pool.t -> Ctx.t -> (string * summary) list
(** Run everything in paper order. *)
