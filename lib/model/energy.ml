module Mapping = Plaid_mapping.Mapping

type run = Modulo of Mapping.t | Segments of Mapping.t list

let default_outer = 16

(* A double-buffered configuration plane prefetches the next segment's
   bits while the current one drains, so a segment switch costs only the
   swap + restart control, not the full bitstream load. *)
let reconfig_cycles = 4

(* The partitioner's spill buffers cover one inner-loop pass (buf_len is
   trip-sized), so a multi-segment kernel alternates its segments — and
   reloads configurations — once per outer iteration.  A single-segment
   kernel keeps its configuration for the whole run and only pays the
   pipeline refill per outer iteration. *)
let rec cycles ~outer = function
  | Modulo m -> Mapping.perf_cycles ~outer m
  | Segments [ m ] -> Mapping.perf_cycles ~outer m + reconfig_cycles
  | Segments ms ->
    outer * List.fold_left (fun acc m -> acc + cycles ~outer:1 (Segments [ m ])) 0 ms

let rec energy ~outer run =
  match run with
  | Modulo m | Segments [ m ] ->
    Tech.energy_pj ~power_uw:(Power.fabric_total m) ~cycles:(cycles ~outer run)
  | Segments ms ->
    float_of_int outer
    *. List.fold_left (fun acc m -> acc +. energy ~outer:1 (Segments [ m ])) 0.0 ms

let perf_per_area ~outer run =
  match run with
  | Segments [] -> 0.0
  | Modulo m | Segments (m :: _) ->
    let iters = float_of_int (outer * m.dfg.Plaid_ir.Dfg.trip) in
    let seconds = float_of_int (cycles ~outer run) *. Tech.cycle_ns *. 1e-9 in
    iters /. seconds /. (Area.fabric_total m.arch /. 1e6)

let fabric_energy m = energy ~outer:1 (Modulo m)
