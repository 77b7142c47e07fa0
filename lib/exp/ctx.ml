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
let create ?(seed = 2025) ?(outer = Plaid_model.Energy.default_outer) ?pool ?cache () =
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
