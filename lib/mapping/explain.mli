(** Mapper explainability: records what the II search did — per-phase wall
    time (schedule / place / route), iteration counts, and end-of-attempt
    congestion — and renders it as a post-mapping diagnostic report
    (`plaidc map --report`).

    Like the rest of [Plaid_obs], recording is strictly out-of-band: it
    consumes no RNG and changes no control flow, so mapping results are
    bit-identical with it on or off.  Disabled (the default), every hook is
    a single branch.  Timings in the report are wall-clock and therefore
    vary run to run; the mapping itself does not. *)

type phase = { ph_name : string; ph_ms : float }

type attempt = {
  at_seq : int;  (** global start order *)
  at_algo : string;  (** "sa", "pf", "hier" or "spatial" *)
  at_ii : int;
  mutable at_mapped : bool;
  mutable at_ms : float;
  mutable at_iterations : int;
  mutable at_phases : phase list;  (** in recording order once completed *)
  mutable at_congestion : (int * int * int) list;
      (** overused (resource, slot, presence) cells at end of negotiation *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded attempts. *)

val with_attempt : algo:string -> ii:int -> mapped:('a -> bool) -> (unit -> 'a) -> 'a
(** Record one II attempt around [f]: wall time, success per [mapped], and
    whatever {!phase} / {!add_iterations} / {!congestion} report from
    inside.  Nesting saves and restores the enclosing attempt.  When
    disabled, just runs [f]. *)

val phase : string -> (unit -> 'a) -> 'a
(** Time a named phase of the current attempt ("schedule", "place",
    "route", or "port-bound" for an II the hierarchical mapper skips
    without annealing).  Passthrough when disabled or outside
    {!with_attempt}. *)

val add_iterations : int -> unit
(** Accumulate negotiation/annealing iterations onto the current attempt. *)

val congestion : (int * int * int) list -> unit
(** Report overused (resource, slot, presence) cells; across restarts the
    worst presence per cell is kept. *)

val attempts : unit -> attempt list
(** All completed attempts, sorted by (ii, algo, start order). *)

type outcome =
  | Mapped of Mapping.t  (** one mapping (the modulo-scheduled flows) *)
  | Segments of int  (** the spatial flow mapped every one of this many segments *)
  | Failed

val json :
  outcome:outcome ->
  kernel:string ->
  seed:int ->
  arch:Plaid_arch.Arch.t ->
  unit ->
  Plaid_obs.Json.t
(** The report as JSON: II-search timeline (per attempt: algo, ii, mapped,
    ms, iterations, phases, overused cells), per-phase totals, a
    channel-overuse heatmap over the fabric grid, whether the kernel
    ["mapped"], and then — for a [Mapped] outcome — its II, PE-occupancy
    heatmap and utilization, or — for [Segments] — the ["segments"]
    count. *)

val ascii :
  outcome:outcome ->
  kernel:string ->
  seed:int ->
  arch:Plaid_arch.Arch.t ->
  unit ->
  string
(** The same report rendered for humans: timeline table, phase totals, and
    ASCII heatmap grids in the style of {!Viz.fabric_view}. *)
