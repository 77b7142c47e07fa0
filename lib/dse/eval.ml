open Plaid_workloads

let mapper_runs = Plaid_obs.Metrics.counter "dse_mapper_invocations"
let kernel_evals = Plaid_obs.Metrics.counter "dse_kernel_evals"
let candidates_pruned = Plaid_obs.Metrics.counter "dse_candidates_pruned"
let eval_ms = Plaid_obs.Metrics.histogram_bucketed "dse_kernel_eval_ms"

type t = {
  seed : int;
  outer : int;
  quick : bool;
  pool : Plaid_util.Pool.t option;
  cache : Plaid_serve.Cache.t option;
  built : (string, Space.built) Plaid_util.Memo.t;
  dfgs : (string, Plaid_ir.Dfg.t) Plaid_util.Memo.t;
  outcomes : (string, kernel_outcome) Plaid_util.Memo.t;
}

and kernel_outcome = {
  ko_kernel : string;
  ko_ok : bool;
  ko_ii : int;
  ko_energy : float;
  ko_ops : int;
  ko_epo : float;
}

let create ?(seed = 2025) ?(outer = Plaid_model.Energy.default_outer) ?(quick = false) ?pool
    ?cache () =
  { seed; outer; quick; pool; cache;
    built = Plaid_util.Memo.create 32; dfgs = Plaid_util.Memo.create 32;
    outcomes = Plaid_util.Memo.create 256 }

let suites =
  [ ("paper", Suite.table2);
    ("quick", List.filter (fun e -> List.mem (Suite.name e) [ "dwconv"; "jacobi"; "atax_u2" ]) Suite.table2);
    ("ml", Suite.ml_entries) ]

let suite_names = List.map fst suites

let find_suite n = List.assoc_opt n suites

let memo = Plaid_util.Memo.find_or_compute

let built t c = memo t.built (Space.name c) (fun () -> Space.build c)

let dfg_of t entry =
  memo t.dfgs (Suite.name entry) (fun () -> Suite.dfg entry)

(* Per-candidate mapping seed, derived from a digest of the canonical name:
   independent of candidate order, strategy, and worker count, so the same
   candidate draws the same stream in every space it appears in (and its
   cache key never splits). *)
let cand_seed t c =
  let hex = Plaid_serve.Fingerprint.digest_hex (Space.name c) in
  let child = int_of_string ("0x" ^ String.sub hex 0 7) in
  Int64.to_int
    (Plaid_util.Rng.bits64 (Plaid_util.Rng.derive (Plaid_util.Rng.create t.seed) child))
  land max_int

let map_candidate t (b : Space.built) dfg ~seed =
  let effort = if t.quick then Plaid_serve.Compile.Quick else Default in
  let mapper = Plaid_serve.Compile.for_fabric ~effort b.pcu in
  Plaid_serve.Compile.map ?cache:t.cache mapper ~arch:b.arch ~dfg ~seed ~compute:(fun () ->
      Plaid_obs.Metrics.incr mapper_runs;
      Plaid_serve.Compile.run ?pool:t.pool mapper ~arch:b.arch ~dfg ~seed)

let ops_of t dfg =
  max 1 (Plaid_ir.Dfg.n_compute dfg * t.outer * dfg.Plaid_ir.Dfg.trip)

let eval_pair t c entry =
  let key = Space.name c ^ "/" ^ Suite.name entry in
  memo t.outcomes key (fun () ->
      Plaid_obs.Trace.with_span ~cat:"dse"
        ~args:[ ("candidate", Space.name c); ("kernel", Suite.name entry) ]
        "dse_eval"
        (fun () ->
          let t0 = Plaid_obs.Trace.Clock.now_ns () in
          let b = built t c in
          let dfg = dfg_of t entry in
          let mapping = map_candidate t b dfg ~seed:(cand_seed t c) in
          Plaid_obs.Metrics.incr kernel_evals;
          let outcome =
            match mapping with
            | None ->
              { ko_kernel = Suite.name entry; ko_ok = false; ko_ii = 0;
                ko_energy = 0.; ko_ops = 0; ko_epo = 0. }
            | Some m ->
              let spm_kb = (Space.normalize c).Space.spm_kb in
              (* system energy: the fabric's cycles at the SPM-inclusive power *)
              let cycles = Plaid_model.Energy.(cycles ~outer:t.outer (Modulo m)) in
              let energy =
                Plaid_model.Tech.energy_pj
                  ~power_uw:(Plaid_model.Power.system m ~spm_kb)
                  ~cycles
              in
              let ops = ops_of t dfg in
              { ko_kernel = Suite.name entry; ko_ok = true; ko_ii = m.ii;
                ko_energy = energy; ko_ops = ops;
                ko_epo = energy /. float_of_int ops }
          in
          Plaid_obs.Metrics.observe eval_ms
            (Plaid_obs.Trace.Clock.seconds_since t0 *. 1e3);
          outcome))

let kernel_eval_of (o : kernel_outcome) =
  { Search.ke_ok = o.ko_ok;
    ke_ii = float_of_int (max 1 o.ko_ii);
    ke_epo = o.ko_epo }

(* Optimistic per-kernel bound, computable without mapping: the achieved II
   is at least MII, power at least leakage (idle fabric + SPM), cycles at
   least the MII-scaled pipeline — so this energy/op lower-bounds every
   achievable outcome, and an unmapped kernel's penalties sit far above
   both clamps.  Soundness is what lets successive halving prune without
   ever losing a frontier point (see {!Search}). *)
let bound_pair t c entry =
  let b = built t c in
  let dfg = dfg_of t entry in
  let mii =
    max 1 (Plaid_ir.Analysis.mii dfg (Plaid_arch.Arch.capacity b.arch))
  in
  let spm_kb = (Space.normalize c).Space.spm_kb in
  let cycles = (mii * ((t.outer * dfg.Plaid_ir.Dfg.trip) - 1)) + 1 in
  let power_lb =
    Plaid_model.Power.idle_fabric b.arch
    +. (float_of_int spm_kb *. Plaid_model.Tech.spm_leakage_per_kb)
  in
  let epo_lb =
    Plaid_model.Tech.energy_pj ~power_uw:power_lb ~cycles
    /. float_of_int (ops_of t dfg)
  in
  { Search.ke_ok = true;
    ke_ii = Float.min (float_of_int mii) (0.5 *. Search.fail_ii);
    ke_epo = Float.min epo_lb (0.5 *. Search.fail_epo) }

type candidate_result = {
  cr_cand : Space.candidate;
  cr_point : Pareto.point;
  cr_kernels : kernel_outcome array;
}

type campaign = {
  c_space : string;
  c_suite : string;
  c_strategy : Search.strategy;
  c_seed : int;
  c_outer : int;
  c_quick : bool;
  c_n_kernels : int;
  c_evaluated : candidate_result list;
  c_frontier : string list;
  c_dominated : (string * string) list;
  c_pruned : string list;
  c_kernel_evals : int;
}

let run t ~space ~suite_name ~suite ~strategy =
  Plaid_obs.Trace.with_span ~cat:"dse"
    ~args:
      [ ("space", space.Space.space_name); ("suite", suite_name);
        ("strategy", Search.strategy_to_string strategy) ]
    "dse_campaign"
    (fun () ->
      let entries = Array.of_list suite in
      (* Concurrent forcing of shared state is the enemy: build every
         candidate and lower every kernel once, on this domain, before any
         pool task reads them. *)
      List.iter (fun c -> ignore (built t c)) space.Space.candidates;
      Array.iter (fun e -> ignore (dfg_of t e)) entries;
      let oracle =
        { Search.n_kernels = Array.length entries;
          area =
            (fun c ->
              Plaid_model.Area.system (built t c).Space.arch
                ~spm_kb:(Space.normalize c).Space.spm_kb);
          eval =
            (fun pairs ->
              let tasks =
                List.map
                  (fun (c, j) () -> kernel_eval_of (eval_pair t c entries.(j)))
                  pairs
              in
              match t.pool with
              | Some pool -> Plaid_util.Pool.run pool tasks
              | None -> List.map (fun task -> task ()) tasks);
          bound = (fun c j -> bound_pair t c entries.(j)) }
      in
      let outcome =
        Search.run ~oracle ~strategy ~seed:t.seed space.Space.candidates
      in
      Plaid_obs.Metrics.add candidates_pruned (List.length outcome.Search.pruned);
      let results =
        List.map
          (fun (r : Space.candidate Search.result) ->
            { cr_cand = r.sr_cand; cr_point = r.sr_point;
              cr_kernels =
                Array.map (fun e -> eval_pair t r.sr_cand e) entries })
          outcome.Search.results
        |> List.sort (fun a b ->
               compare (Space.name a.cr_cand) (Space.name b.cr_cand))
      in
      let frontier, dominated =
        Pareto.classify
          (List.map (fun r -> (Space.name r.cr_cand, r.cr_point)) results)
      in
      { c_space = space.Space.space_name;
        c_suite = suite_name;
        c_strategy = strategy;
        c_seed = t.seed;
        c_outer = t.outer;
        c_quick = t.quick;
        c_n_kernels = Array.length entries;
        c_evaluated = results;
        c_frontier = List.map fst frontier;
        c_dominated = List.map (fun (n, _, w) -> (n, w)) dominated;
        c_pruned =
          List.sort compare (List.map Space.name outcome.Search.pruned);
        c_kernel_evals = outcome.Search.kernel_evals })
