(** Generic CGRA architecture description.

    An architecture is a directed graph of timing-annotated resources.  The
    model follows the registered-hop convention of typical spatio-temporal
    CGRAs:

    - A functional unit ([Fu]) executes one DFG node per cycle.  Links out of
      an FU carry latency 1 (the result lands in the PE's output register at
      the next cycle).  Links into an FU carry latency 0 (operands are read
      combinationally at issue).
    - A register ([Reg]) stores one value per cycle: links into a register
      have latency 1 (the write), links out have latency 0, and a register
      may hold data across cycles via its implicit self-link.
    - A port ([Port]) is combinational wiring (crossbar legs, NoC ports):
      latency 0 in and out.  Inter-tile links connect port to port with the
      latencies the builder assigns (registered mesh hops use the producing
      side's output register, so port-to-port links are latency 0).

    With this convention a route's cycle count equals the number of
    latency-1 links it crosses, and no combinational loop can form as long
    as every cycle of latency-0 links is broken by a register — asserted by
    {!check_no_combinational_loop}, mirroring the paper's post-synthesis EDA
    check (Section 4.2). *)

type fu_class = {
  fu_ops : Plaid_ir.Op.t list;  (** operations this unit executes *)
  fu_memory : bool;             (** has a scratchpad datapath (ALSU) *)
}

type kind =
  | Fu of fu_class
  | Port
  | Reg

type resource = {
  id : int;
  rname : string;
  kind : kind;
  tile : int * int;        (** grid coordinates of the owning tile *)
  area_class : string;     (** key into the technology model, e.g. "alu" *)
}

type link = { lsrc : int; ldst : int; latency : int }

(** A hardware fault over fabric resources.  Faults are attached to an
    architecture with {!set_faults}; the mappers then mask the broken
    silicon out of the MRRG and route around it, while the cycle-level
    simulator corrupts every value that still touches it (so unrepaired
    mappings are caught against the golden reference). *)
type fault =
  | Dead_fu of int            (** the FU with this resource id executes nothing *)
  | Broken_port of int        (** a Port or Reg resource carries nothing *)
  | Broken_link of int * int  (** the (src, dst) wire is severed *)
  | Stuck_config of int * int (** configuration entry [e] of resource [r] is
                                  stuck: the (r, slot e) MRRG cell is unusable
                                  (entry 0 on a clock-gated fabric kills the
                                  whole resource; entries >= II are unused
                                  and therefore harmless) *)
  | Faulty_spm of string      (** reads from this scratchpad bank corrupt *)

type config_profile = {
  compute_bits : int;  (** per configuration entry: FU op + immediates *)
  comm_bits : int;     (** per entry: router / mux select fields *)
  entries : int;       (** configuration memory depth (max II) *)
  clock_gated : bool;  (** spatial CGRAs freeze config after loading *)
}

(** Derived routing acceleration tables (see {!route_tables}).
    [rt_hop]/[rt_lat] hold one row of lower bounds per FU destination,
    in [fus] order: the row of FU [dst] starts at offset [rt_row.(dst)],
    so [rt_hop] at [rt_row.(dst) + res] is the minimum link count, and
    [rt_lat] at the same offset the minimum cycle latency, of any path
    from [res] to [dst] over the faulted adjacency; byte 255 means
    unreachable (or clamped, far beyond the router's maximum detour).
    Non-FU resources have no row: [rt_row.(res) = -1], which also serves
    as the router's FU test.  Each table holds [Array.length fus * rt_n]
    bytes.  [rt_adj_idx]/[rt_adj_dst]/[rt_adj_lat] are [out_links]
    flattened to CSR form in list order, and [rt_cost.(res)] is
    {!base_route_cost}[ t res]. *)
type route_tables = private {
  rt_n : int;
  rt_row : int array;
  rt_hop : Bytes.t;
  rt_lat : Bytes.t;
  rt_adj_idx : int array;
  rt_adj_dst : int array;
  rt_adj_lat : int array;
  rt_cost : float array;
}

type t = private {
  name : string;
  resources : resource array;
  links : link array;                  (** pristine structure, faults included *)
  out_links : (int * int) list array;  (** per resource: (dst, latency); broken
                                           links are filtered out *)
  in_links : (int * int) list array;   (** per resource: (src, latency) *)
  fus : int array;                     (** resource ids of all FUs *)
  mem_fus : int array;                 (** FUs with [fu_memory = true] *)
  config : config_profile;
  allow_fu_routethrough : bool;
  faults : fault list;
  f_res : bool array;                  (** resource entirely unusable *)
  f_stuck : int list array;            (** stuck config entries per resource *)
  rt_cache : route_tables option Atomic.t;
      (** lazily built routing tables; derived state, never fingerprinted *)
  fp_cache : string option Atomic.t;
      (** lazily computed {!fingerprint}; derived state *)
}

(** {1 Building} *)

type builder

val builder :
  ?allow_fu_routethrough:bool -> name:string -> config:config_profile -> unit -> builder

val add_resource :
  builder -> name:string -> kind:kind -> tile:int * int -> area_class:string -> int

val add_link : builder -> src:int -> dst:int -> latency:int -> unit

val freeze : builder -> t
(** @raise Invalid_argument if a link endpoint is out of range, if an FU->*
    link has latency <> 1, or if a purely combinational (all latency-0)
    cycle exists. *)

(** {1 Queries} *)

val resource : t -> int -> resource

val n_resources : t -> int

val fu_supports : t -> int -> Plaid_ir.Op.t -> bool
(** Whether resource [id] is an FU that can execute the op (memory-class ops
    additionally require [fu_memory]). *)

val capacity : t -> Plaid_ir.Analysis.capacity
(** FU counts, for ResMII. *)

val alu_compute_class : fu_class
(** The paper's 15-operation, 16-bit ALU (no memory access). *)

val alsu_class : fu_class
(** ALU operations plus load/store: the Arithmetic-Load-Store Unit. *)

val base_route_cost : t -> int -> float
(** Router cost of occupying a resource: cheap for ports and registers,
    expensive for FU route-throughs (they burn an issue slot). *)

val route_tables : t -> route_tables
(** The hop/latency lower bounds to every FU and the CSR adjacency for this
    architecture's current (faulted) wiring, built on first use and cached
    on the value — repeated calls are O(1) and safe from any domain.
    {!set_faults} returns a copy with an empty cache (the adjacency
    changed); {!set_config} shares the cache (it doesn't). *)

val config_bits_per_entry : t -> int

val set_config : t -> config_profile -> t
(** Replace the configuration profile (builders compute bit counts from the
    frozen structure, then attach them).  The copy shares the routing
    tables but starts with an empty {!fingerprint} cache: the profile is
    part of the fingerprint. *)

(** {1 Faults} *)

val set_faults : t -> fault list -> t
(** Attach a fault set (replacing any previous one).  Broken links vanish
    from [out_links]/[in_links]; dead resources are flagged in [f_res];
    {!fu_supports} turns false for dead FUs and {!capacity} counts only
    live issue slots, so every mapper sees the degraded fabric without
    further plumbing.  The copy starts with empty {!route_tables} and
    {!fingerprint} caches.  @raise Invalid_argument for out-of-range ids,
    kind mismatches, or links that do not exist. *)

val faults : t -> fault list

val res_faulty : t -> int -> bool
(** Dead FU or broken port. *)

val stuck_entries : t -> int -> int list
(** Sorted stuck configuration entries of a resource. *)

val cell_faulty : t -> res:int -> slot:int -> bool
(** Whether the (resource, modulo-slot) cell is unusable: the resource is
    dead, or its configuration entry for [slot] is stuck (entry 0 covers
    every slot on a clock-gated fabric). *)

val link_broken : t -> src:int -> dst:int -> bool

val spm_faulty : t -> string -> bool

val fault_to_string : t -> fault -> string

val fingerprint_lines : t -> string list
(** Canonical, process-stable structural description — name, config
    profile, routethrough policy, every resource and link, and the
    attached fault set (sorted).  Two architectures with equal lines are
    indistinguishable to every mapper; the mapping-cache fingerprints
    ({!Plaid_serve.Fingerprint}) digest exactly this. *)

val fingerprint : t -> string
(** Lowercase-hex MD5 of [String.concat "\n" (fingerprint_lines t)].
    Computed once per value on first use and cached on it — repeated calls
    are O(1) and safe from any domain.  {!set_faults} and {!set_config}
    return copies with an empty cache, so each gets the digest of its own
    lines. *)

val pp_summary : Format.formatter -> t -> unit
