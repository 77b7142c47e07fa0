(** A complete mapping: placement, schedule, and routes, plus an
    independent validator.

    The validator rebuilds occupancy from scratch and re-checks every claim
    the mappers make — operation support, exclusive FU slots, link-level
    path continuity, exact edge latencies, and wire capacity with multicast
    sharing.  Mappers must never produce a mapping that fails validation;
    the test suite and the simulator both rely on it. *)

type route_entry = {
  re_edge : Plaid_ir.Dfg.edge;
  re_path : Route.path;  (** (resource, elapsed) between the FUs, exclusive *)
}

type t = {
  arch : Plaid_arch.Arch.t;
  dfg : Plaid_ir.Dfg.t;
  ii : int;
  times : int array;   (** absolute issue cycle per node *)
  place : int array;   (** FU resource id per node *)
  routes : route_entry list;
}

val edge_length : t -> Plaid_ir.Dfg.edge -> int
(** Required route latency: [t(dst) - t(src) + dist * ii]. *)

val validate : t -> (unit, string) result

val perf_cycles : ?outer:int -> t -> int
(** Total execution cycles: [ii * (outer * trip - 1) + makespan] — one
    iteration issued every II cycles, plus one pipeline fill/drain.
    [outer] (default 1) is the trip count of the loop nest around the
    kernel's inner loop; the pipeline stays full across its iterations. *)

val makespan : t -> int

val wire_occupancy : t -> int
(** Distinct (resource, slot) wire uses per II — drives dynamic routing
    power in the model. *)

val utilization : t -> (string * float) list
(** Per [area_class]: occupied (resource, slot) cells / available cells —
    the router-utilization evidence behind the paper's collective-routing
    claim (Section 3.1). *)

val reload : t -> Mrrg.t
(** Rebuild a fully-occupied MRRG from the mapping (used by incremental
    tools and the simulator). *)

val pp : Format.formatter -> t -> unit
