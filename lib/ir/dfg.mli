(** Dataflow graph: the unit of mapping.

    A DFG represents the body of one (innermost, possibly unrolled) loop
    iteration.  Nodes are operations; edges are data dependencies.  An edge
    with [dist = d > 0] is an inter-iteration (loop-carried) dependency: the
    consumer at iteration [i] reads the value the producer computed at
    iteration [i - d].  These back edges determine the recurrence-minimum
    initiation interval (RecMII). *)

type access = {
  array : string;  (** name of the scratchpad array *)
  offset : int;    (** constant byte-less element offset *)
  stride : int;    (** elements advanced per loop iteration *)
}
(** Affine address [base(array) + offset + stride * iteration]; this is the
    address-generation hardware of the ALSU. *)

type node = {
  id : int;
  op : Op.t;
  imms : (int * int) list;  (** (operand index, constant) immediates *)
  access : access option;   (** required iff [op] is Load/Store/Input *)
  label : string;           (** human-readable name for dumps *)
}

type edge = {
  src : int;
  dst : int;
  operand : int;  (** input slot of [dst]; [-1] marks an ordering-only edge *)
  dist : int;     (** inter-iteration distance; 0 = same iteration *)
  init : int;     (** value read while [iteration < dist] (carry initial) *)
}
(** An ordering-only edge ([operand = -1]) carries no data: it serializes
    aliasing memory accesses under modulo overlap.  Schedulers respect its
    timing constraint; routers ignore it (the dependency flows through the
    scratchpad, not the NoC). *)

type t = private {
  name : string;
  trip : int;  (** iterations executed per kernel invocation *)
  nodes : node array;
  edges : edge array;
  succs : edge list array;  (** outgoing edges, indexed by node id *)
  preds : edge list array;  (** incoming edges, indexed by node id *)
}

(** {1 Construction} *)

type builder

val builder : ?trip:int -> string -> builder

val add_node :
  builder ->
  ?imms:(int * int) list ->
  ?access:access ->
  ?label:string ->
  Op.t ->
  int
(** Returns the fresh node id. *)

val add_edge :
  builder -> ?dist:int -> ?init:int -> src:int -> dst:int -> operand:int -> unit -> unit

val finish : builder -> t
(** Freezes the builder and validates the graph.
    @raise Invalid_argument if any operand of any node is not covered by
    exactly one edge or immediate, if a memory node lacks an access, if the
    distance-0 subgraph has a cycle, or if an edge index is out of range. *)

(** {1 Queries} *)

val n_nodes : t -> int

val n_compute : t -> int
(** Nodes whose op is one of the 15 ALU operations. *)

val n_memory : t -> int
(** Load/Store nodes (mapped on ALSUs). *)

val is_ordering : edge -> bool
(** [operand = -1]. *)

val data_edges : t -> int
(** Edges that carry data (and hence need routes). *)

val node : t -> int -> node

val preds : t -> int -> edge list

val succs : t -> int -> edge list

val topo_order : t -> int list
(** Topological order of the distance-0 subgraph (back edges ignored). *)

val max_dist : t -> int
(** Largest inter-iteration distance in the graph (0 if none). *)

val extent : offset:int -> stride:int -> trip:int -> int
(** Element count covering [offset + stride * i] for every [i] in
    [0, trip): [1 + max 0 (max offset last)] with [last] the final address.
    Saturates at [max_int] rather than overflowing. *)

val arrays : t -> (string * int) list
(** Arrays referenced with, for each, a conservative element count covering
    every access over [trip] iterations ({!extent}, so at most
    [max_int]). *)

val pp_stats : Format.formatter -> t -> unit
