open Plaid_workloads

type t = {
  seed : int;
  outer_trips : int;
  pool : Plaid_util.Pool.t option;
  cache : Plaid_serve.Cache.t option;  (* persistent mapping cache *)
  fabrics : (Plaid_core.Fabrics.fabric * Plaid_core.Fabrics.built) list;
  mappings : (string, Plaid_mapping.Mapping.t option) Plaid_util.Memo.t;
  spatials : (string, (Plaid_spatial.Spatial.result, string) result) Plaid_util.Memo.t;
}

(* Eager, so pool tasks sharing a context never race to build a fabric. *)
let create ?(seed = 2025) ?(outer = 16) ?pool ?cache () =
  {
    seed;
    outer_trips = outer;
    pool;
    cache;
    fabrics = List.map (fun f -> (f, Plaid_core.Fabrics.build f)) Plaid_core.Fabrics.all;
    mappings = Plaid_util.Memo.create 64;
    spatials = Plaid_util.Memo.create 64;
  }

let outer t = t.outer_trips

let pool t = t.pool

let fabric t f = List.assq f t.fabrics

let memo = Plaid_util.Memo.find_or_compute

let map_with t name mapper (b : Plaid_core.Fabrics.built) entry =
  memo t.mappings (name ^ "/" ^ Suite.name entry) (fun () ->
      Plaid_serve.Compile.map ?cache:t.cache ?pool:t.pool mapper ~arch:b.arch
        ~dfg:(Suite.dfg entry) ~seed:t.seed)

let map t f entry =
  let b = fabric t f in
  map_with t (Plaid_core.Fabrics.name f) (Plaid_serve.Compile.for_fabric b.pcu) b entry

let map_plaid_generic t algo entry =
  let name, mapper =
    match algo with `Sa -> ("plaid-sa", Plaid_serve.Compile.Sa) | `Pf -> ("plaid-pf", Pf)
  in
  map_with t name mapper (fabric t Plaid) entry

let spatial t entry =
  memo t.spatials ("spatial/" ^ Suite.name entry) (fun () ->
      Plaid_spatial.Spatial.run ~seed:t.seed (Suite.dfg entry))

(* Outer-scaled cycle count: the modulo kernel admits one iteration per II,
   the pipeline fills once per invocation of the whole loop nest. *)
let cycles t m = Plaid_mapping.Mapping.perf_cycles ~outer:t.outer_trips m

(* The partitioner's spill buffers cover one inner-loop pass (buf_len is
   trip-sized), so a multi-segment kernel alternates its segments — and
   reloads configurations — once per outer iteration.  A single-segment
   kernel keeps its configuration for the whole run and only pays the
   pipeline refill per outer iteration. *)
let spatial_cycles t (r : Plaid_spatial.Spatial.result) =
  match r.mappings with
  | [ m ] ->
    (* one frozen configuration streams the whole iteration space *)
    cycles t m + Plaid_spatial.Spatial.reconfig_cycles
  | ms ->
    t.outer_trips
    * List.fold_left
        (fun acc (m : Plaid_mapping.Mapping.t) ->
          acc + Plaid_mapping.Mapping.perf_cycles m + Plaid_spatial.Spatial.reconfig_cycles)
        0 ms

let energy t m =
  Plaid_model.Tech.energy_pj ~power_uw:(Plaid_model.Power.fabric_total m) ~cycles:(cycles t m)

let spatial_energy t (r : Plaid_spatial.Spatial.result) =
  match r.mappings with
  | [ m ] ->
    Plaid_model.Tech.energy_pj
      ~power_uw:(Plaid_model.Power.fabric_total m)
      ~cycles:(spatial_cycles t r)
  | ms ->
    float_of_int t.outer_trips
    *. List.fold_left
         (fun acc (m : Plaid_mapping.Mapping.t) ->
           let c =
             Plaid_mapping.Mapping.perf_cycles m + Plaid_spatial.Spatial.reconfig_cycles
           in
           acc
           +. Plaid_model.Tech.energy_pj ~power_uw:(Plaid_model.Power.fabric_total m) ~cycles:c)
         0.0 ms

let perf_per_area t (m : Plaid_mapping.Mapping.t) =
  let iters = float_of_int (t.outer_trips * m.dfg.Plaid_ir.Dfg.trip) in
  let seconds = float_of_int (cycles t m) *. Plaid_model.Tech.cycle_ns *. 1e-9 in
  iters /. seconds /. (Plaid_model.Area.fabric_total m.arch /. 1e6)

let spatial_perf_per_area t (r : Plaid_spatial.Spatial.result) =
  match r.mappings with
  | [] -> 0.0
  | m :: _ ->
    let iters = float_of_int (t.outer_trips * m.dfg.Plaid_ir.Dfg.trip) in
    let seconds = float_of_int (spatial_cycles t r) *. Plaid_model.Tech.cycle_ns *. 1e-9 in
    iters /. seconds /. (Plaid_model.Area.fabric_total m.arch /. 1e6)
