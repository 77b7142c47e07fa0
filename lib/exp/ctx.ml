open Plaid_workloads

type t = {
  seed : int;
  outer_trips : int;
  pool : Plaid_util.Pool.t option;
  cache : Plaid_serve.Cache.t option;  (* persistent mapping cache *)
  st : Plaid_arch.Arch.t Lazy.t;
  st6 : Plaid_arch.Arch.t Lazy.t;
  st_ml : Plaid_arch.Arch.t Lazy.t;
  plaid2 : Plaid_core.Pcu.t Lazy.t;
  plaid3 : Plaid_core.Pcu.t Lazy.t;
  plaid_ml : Plaid_core.Pcu.t Lazy.t;
  mappings : (string, Plaid_mapping.Mapping.t option) Plaid_util.Memo.t;
  hier : (string, Plaid_core.Hier_mapper.outcome) Plaid_util.Memo.t;
  spatials : (string, (Plaid_spatial.Spatial.result, string) result) Plaid_util.Memo.t;
}

let create ?(seed = 2025) ?(outer = 16) ?pool ?cache () =
  {
    seed;
    outer_trips = outer;
    pool;
    cache;
    st = lazy (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st_4x4");
    st6 = lazy (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_6x6 ~name:"st_6x6");
    st_ml = lazy (Plaid_core.Specialize.st_ml ());
    plaid2 = lazy (Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"plaid_2x2" ());
    plaid3 = lazy (Plaid_core.Pcu.build ~rows:3 ~cols:3 ~name:"plaid_3x3" ());
    plaid_ml = lazy (Plaid_core.Specialize.plaid_ml ());
    mappings = Plaid_util.Memo.create 64;
    hier = Plaid_util.Memo.create 64;
    spatials = Plaid_util.Memo.create 64;
  }

let outer t = t.outer_trips

let pool t = t.pool

let st t = Lazy.force t.st
let st6 t = Lazy.force t.st6
let st_ml t = Lazy.force t.st_ml
let plaid2 t = Lazy.force t.plaid2
let plaid3 t = Lazy.force t.plaid3
let plaid_ml t = Lazy.force t.plaid_ml

(* Concurrent forcing of a lazy raises in OCaml 5, so before tasks share a
   context the architectures must be built once, on the spawning domain. *)
let prewarm t =
  ignore (st t); ignore (st6 t); ignore (st_ml t);
  ignore (plaid2 t); ignore (plaid3 t); ignore (plaid_ml t)

let best_of_baselines t arch entry =
  Plaid_serve.Compile.map ?cache:t.cache ?pool:t.pool (Plaid_serve.Compile.Best_of Default)
    ~arch ~dfg:(Suite.dfg entry) ~seed:t.seed

let memo = Plaid_util.Memo.find_or_compute

let map_st t entry =
  memo t.mappings ("st/" ^ Suite.name entry) (fun () -> best_of_baselines t (st t) entry)

let map_st6 t entry =
  memo t.mappings ("st6/" ^ Suite.name entry) (fun () -> best_of_baselines t (st6 t) entry)

let map_st_ml t entry =
  memo t.mappings ("stml/" ^ Suite.name entry) (fun () -> best_of_baselines t (st_ml t) entry)

(* Hierarchical outcomes carry the motif cover and MII alongside the
   mapping; both are cheap deterministic functions of (seed, dfg), so a
   cache hit reconstructs them instead of storing them. *)
let hier_on t key plaid entry =
  memo t.hier (key ^ "/" ^ Suite.name entry) (fun () ->
      let dfg = Suite.dfg entry in
      let arch = plaid.Plaid_core.Pcu.arch in
      let fresh = ref None in
      let mapping =
        Plaid_serve.Compile.map ?cache:t.cache (Hier (plaid, Default)) ~arch ~dfg ~seed:t.seed
          ~compute:(fun () ->
            let o = Plaid_core.Hier_mapper.map ~plaid ~seed:t.seed dfg in
            fresh := Some o;
            o.Plaid_core.Hier_mapper.mapping)
      in
      match !fresh with
      | Some o -> { o with Plaid_core.Hier_mapper.mapping }
      | None ->
        {
          Plaid_core.Hier_mapper.mapping;
          hier = Plaid_core.Hier_mapper.default_hier ~seed:t.seed dfg;
          mii = Plaid_ir.Analysis.mii dfg (Plaid_arch.Arch.capacity arch);
        })

let map_plaid t entry = hier_on t "plaid2" (plaid2 t) entry

let map_plaid3 t entry = hier_on t "plaid3" (plaid3 t) entry

let map_plaid_ml t entry = hier_on t "plaidml" (plaid_ml t) entry

let map_plaid_generic t algo entry =
  let name, mapper =
    match algo with `Sa -> ("plaid-sa", Plaid_serve.Compile.Sa) | `Pf -> ("plaid-pf", Pf)
  in
  memo t.mappings (name ^ "/" ^ Suite.name entry) (fun () ->
      Plaid_serve.Compile.map ?cache:t.cache ?pool:t.pool mapper
        ~arch:(plaid2 t).Plaid_core.Pcu.arch ~dfg:(Suite.dfg entry) ~seed:t.seed)

let spatial t entry =
  memo t.spatials ("spatial/" ^ Suite.name entry) (fun () ->
      Plaid_spatial.Spatial.run ~seed:t.seed (Suite.dfg entry))

(* Outer-scaled cycle count: the modulo kernel admits one iteration per II,
   the pipeline fills once per invocation of the whole loop nest. *)
let cycles t (m : Plaid_mapping.Mapping.t) =
  let total_iters = t.outer_trips * m.dfg.Plaid_ir.Dfg.trip in
  (m.ii * (total_iters - 1)) + Plaid_mapping.Mapping.makespan m

(* The partitioner's spill buffers cover one inner-loop pass (buf_len is
   trip-sized), so a multi-segment kernel alternates its segments — and
   reloads configurations — once per outer iteration.  A single-segment
   kernel keeps its configuration for the whole run and only pays the
   pipeline refill per outer iteration. *)
let spatial_cycles t (r : Plaid_spatial.Spatial.result) =
  match r.mappings with
  | [ m ] ->
    (* one frozen configuration streams the whole iteration space *)
    (m.ii * ((t.outer_trips * m.dfg.Plaid_ir.Dfg.trip) - 1))
    + Plaid_mapping.Mapping.makespan m + Plaid_spatial.Spatial.reconfig_cycles
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
