(** Pricing: execution cycles, fabric energy and performance per area of
    one mapped kernel (Figures 12 and 14-19).  The one place a mapping
    becomes a priced number; every function is pure.

    [outer] is the trip count of the loop nest around the kernel's inner
    loop.  A modulo mapping keeps its pipeline full across it
    ({!Plaid_mapping.Mapping.perf_cycles}). *)

type run =
  | Modulo of Plaid_mapping.Mapping.t
      (** one modulo-scheduled configuration (the ST and Plaid fabrics) *)
  | Segments of Plaid_mapping.Mapping.t list
      (** a spatial run: one frozen-configuration mapping per partition
          segment, executed in order ({!Plaid_spatial.Spatial.run}) *)

val default_outer : int
(** 16: the outer trip count the experiments and the DSE price at. *)

val reconfig_cycles : int
(** 4: the stall to swap in a spatial segment's configuration
    (double-buffered config plane: the bits stream in behind the running
    segment). *)

val cycles : outer:int -> run -> int
(** [Modulo m]: [perf_cycles ~outer m].  A single segment keeps its
    configuration for the whole run: [perf_cycles ~outer m +
    reconfig_cycles].  Several segments alternate once per outer
    iteration, because the spill buffers hold one inner-loop pass:
    [outer * sum (perf_cycles m + reconfig_cycles)]. *)

val energy : outer:int -> run -> float
(** Fabric energy (pJ): fabric power x {!cycles}, per segment when there
    are several, [outer] times the sum in segment order. *)

val perf_per_area : outer:int -> run -> float
(** Iterations per second per mm{^2} of fabric, from {!cycles} and the
    first mapping's trip count and fabric; 0 for no segments. *)

val fabric_energy : Plaid_mapping.Mapping.t -> float
(** [energy ~outer:1 (Modulo m)]: one pass of the inner loop, in pJ.  The
    figures price at {!default_outer}. *)
