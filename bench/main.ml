(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Section 7) — workload characteristics, performance, power, area, energy,
   scalability, mapper comparison, domain specialization — plus the design
   ablations and a full bit-exact verification pass.  Output lines carry the
   paper's reference numbers inline so paper-vs-measured can be read off
   directly (also recorded in EXPERIMENTS.md).

   Part 2 runs Bechamel microbenchmarks of the toolchain itself (motif
   generation, the exact-latency router, the hierarchical mapper, the
   cycle-level simulator), one Test.make per component. *)

let jobs =
  (* -j N / --jobs N: worker count for the experiment and speedup sections *)
  let rec scan = function
    | ("-j" | "--jobs") :: n :: _ -> int_of_string_opt n
    | _ :: rest -> scan rest
    | [] -> None
  in
  match scan (Array.to_list Sys.argv) with
  | Some n -> max 1 n
  | None -> Domain.recommended_domain_count ()

let run_experiments pool =
  let ctx = Plaid_exp.Ctx.create ~pool () in
  ignore (Plaid_exp.Experiments.all ~pool ctx)

(* --- microbenchmarks --------------------------------------------------- *)

let gemm_dfg = lazy (Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "gemm_u2"))

let plaid = lazy (Option.get (Plaid_core.Fabrics.build Plaid).pcu)

let st_arch = lazy (Plaid_core.Fabrics.build St).arch

let bench_motif_gen =
  Bechamel.Test.make ~name:"motif-generation(gemm_u2)"
    (Bechamel.Staged.stage (fun () ->
         let g = Lazy.force gemm_dfg in
         Plaid_core.Motif_gen.generate ~rng:(Plaid_util.Rng.create 11) g))

let bench_router =
  Bechamel.Test.make ~name:"exact-latency-route(4x4,II=2)"
    (Bechamel.Staged.stage (fun () ->
         let arch = Lazy.force st_arch in
         let mrrg = Plaid_mapping.Mrrg.create arch ~ii:2 in
         let p = Plaid_arch.Mesh.spatio_temporal_4x4 in
         let src = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:0 in
         let dst = Plaid_arch.Mesh.fu_of_pe p ~row:3 ~col:3 in
         Plaid_mapping.Route.find mrrg ~src_fu:src ~src_node:0 ~t_src:0 ~dst_fu:dst ~length:6
           ~mode:Plaid_mapping.Route.Hard))

let bench_hier_mapper =
  Bechamel.Test.make ~name:"hier-map(gemm_u2->plaid2x2)"
    (Bechamel.Staged.stage (fun () ->
         Plaid_core.Hier_mapper.map
           ~params:Plaid_core.Hier_mapper.quick
           ~plaid:(Lazy.force plaid) ~seed:5 (Lazy.force gemm_dfg)))

let bench_simulator =
  let mapping =
    lazy
      (match
         (Plaid_core.Hier_mapper.map ~plaid:(Lazy.force plaid) ~seed:5 (Lazy.force gemm_dfg))
           .Plaid_core.Hier_mapper.mapping
       with
      | Some m -> m
      | None -> failwith "bench: mapping failed")
  in
  let spm =
    lazy
      (let entry = Plaid_workloads.Suite.find "gemm_u2" in
       let kernel =
         Plaid_ir.Unroll.apply entry.Plaid_workloads.Suite.base
           entry.Plaid_workloads.Suite.unroll
       in
       Plaid_sim.Spm.of_kernel kernel ~params:(Plaid_workloads.Suite.params entry) ~seed:3)
  in
  Bechamel.Test.make ~name:"cycle-sim(gemm_u2 on plaid)"
    (Bechamel.Staged.stage (fun () ->
         Plaid_sim.Cycle_sim.run (Lazy.force mapping) (Plaid_sim.Spm.copy (Lazy.force spm))))

let run_microbenches () =
  Plaid_exp.Ascii.heading "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 200) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
             Toolkit.Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Printf.printf "%-36s %12.1f ns/run\n" name t
          | _ -> Printf.printf "%-36s (no estimate)\n" name)
        results)
    [ bench_motif_gen; bench_router; bench_hier_mapper; bench_simulator ]

(* --- parallel speedup -------------------------------------------------- *)

let kernels = [ "gemm_u2"; "conv3x3"; "jacobi_u2"; "bicg_u2" ]

let portfolio ?pool () =
  let arch = Lazy.force st_arch in
  let algos =
    [ Plaid_mapping.Driver.Pf Plaid_mapping.Pathfinder.default;
      Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.default ]
  in
  List.map
    (fun k ->
      let dfg = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find k) in
      Plaid_mapping.Driver.best_of ?pool ~restarts:2 ~algos ~arch ~dfg ~seed:7 ())
    kernels

let time f =
  let t0 = Plaid_obs.Trace.Clock.now_ns () in
  let v = f () in
  (v, Plaid_obs.Trace.Clock.seconds_since t0)

(* Time the mapper portfolio sequentially and on a [jobs]-worker pool.  The
   parallel run must produce the same outcomes (asserted below); the point
   of this section is the wall-clock ratio. *)
let run_speedup () =
  Plaid_exp.Ascii.heading (Printf.sprintf "Mapper portfolio speedup (-j %d)" jobs);
  let seq, t_seq = time (fun () -> portfolio ()) in
  let par, t_par =
    Plaid_util.Pool.with_pool ~size:jobs (fun pool ->
        time (fun () -> portfolio ~pool ()))
  in
  let ii o =
    match o.Plaid_mapping.Driver.mapping with
    | Some m -> m.Plaid_mapping.Mapping.ii
    | None -> -1
  in
  if List.map ii seq <> List.map ii par then
    failwith "speedup bench: parallel outcomes differ from sequential";
  List.iter2
    (fun k o -> Printf.printf "  %-12s II=%d attempts=%d
" k (ii o) o.Plaid_mapping.Driver.attempts)
    kernels seq;
  Printf.printf "  sequential  %.2fs
  %d workers   %.2fs
  speedup     %.2fx
"
    t_seq jobs t_par (t_seq /. t_par)

(* --- fault repair cost ------------------------------------------------- *)

(* The deterministic reports count repair effort in displaced nodes and II
   attempts; this section puts wall-clock behind those proxies.  The same
   fault sets are repaired via Driver.repair (incremental first, fallback
   allowed) and via an unconditional full remap. *)
let run_fault_repair () =
  Plaid_exp.Ascii.heading "Fault repair cost (gemm_u2 on st_4x4, 2 faults/set)";
  let arch = Lazy.force st_arch in
  let dfg = Lazy.force gemm_dfg in
  let algo = Plaid_mapping.Driver.Pf Plaid_mapping.Pathfinder.default in
  let healthy =
    match (Plaid_mapping.Driver.map ~algo ~arch ~dfg ~seed:7 ()).Plaid_mapping.Driver.mapping with
    | Some m -> m
    | None -> failwith "fault bench: healthy mapping failed"
  in
  let base = Plaid_util.Rng.create 2025 in
  let sets =
    List.init 10 (fun i ->
        Plaid_fault.Inject.sample arch ~rng:(Plaid_util.Rng.derive base i) ~n:2)
  in
  let archs = List.map (Plaid_arch.Arch.set_faults arch) sets in
  let repairs, t_repair =
    time (fun () ->
        List.map
          (fun farch ->
            Plaid_mapping.Driver.repair ~algo ~arch:farch ~mapping:healthy ~seed:7 ())
          archs)
  in
  let _, t_remap =
    time (fun () ->
        List.iter
          (fun farch -> ignore (Plaid_mapping.Driver.map ~algo ~arch:farch ~dfg ~seed:7 ()))
          archs)
  in
  let ok = List.filter (fun r -> r.Plaid_mapping.Driver.repaired <> None) repairs in
  let inc = List.filter (fun r -> r.Plaid_mapping.Driver.incremental) repairs in
  Printf.printf
    "  %d fault sets: %d repaired (%d incremental)\n  repair loop  %.2fs\n  full remaps  %.2fs\n"
    (List.length sets) (List.length ok) (List.length inc) t_repair t_remap

(* --- mapping cache: cold vs warm --------------------------------------- *)

(* The acceptance number for Plaid_serve: mapping the full workload suite
   through the batch service with a cold store, then again with a warm one.
   The warm pass reads and re-verifies blobs instead of running mappers, so
   it must be >= 10x faster; the responses must be byte-identical.  The
   cache's own counters are printed from the service's stats so the hit/miss
   accounting is part of the recorded output. *)
let run_cache_cold_warm () =
  Plaid_exp.Ascii.heading "Mapping cache: cold vs warm (full suite via plaidc-serve core)";
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_file "plaid_bench_cache" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) @@ fun () ->
  let requests =
    List.map
      (fun e ->
        Plaid_serve.Service.Map
          { kernel = Plaid_workloads.Suite.name e; arch = "plaid"; seed = 2025;
            deadline_ms = None })
      Plaid_workloads.Suite.table2
  in
  let run_pass () =
    (* a fresh cache per pass: pass 1 exercises compute+store, pass 2 the
       disk tier of a separate process lifetime *)
    let cache = Plaid_serve.Cache.create ~dir () in
    let svc = Plaid_serve.Service.create ~cache () in
    let resps = Plaid_serve.Service.run_batch svc requests in
    (resps, Plaid_serve.Cache.stats cache)
  in
  let (cold, cold_stats), t_cold = time run_pass in
  let (warm, warm_stats), t_warm = time run_pass in
  let payloads rs =
    List.map
      (function
        | Plaid_serve.Service.Payload { payload; _ } -> payload
        | Plaid_serve.Service.Failure msg -> "err " ^ msg)
      rs
  in
  if payloads cold <> payloads warm then
    failwith "cache bench: warm responses differ from cold";
  Printf.printf
    "  %d kernels\n  cold (computed %d)  %.2fs\n  warm (disk hits %d)  %.3fs\n  speedup     %.0fx%s\n"
    (List.length requests) cold_stats.Plaid_serve.Cache.miss t_cold
    warm_stats.Plaid_serve.Cache.hit_disk t_warm (t_cold /. t_warm)
    (if t_cold /. t_warm >= 10.0 then "  (>= 10x: PASS)" else "  (< 10x: FAIL)")

(* --- DSE campaigns: cold vs warm --------------------------------------- *)

(* The acceptance number for Plaid_dse: an exhaustive sweep of the tiny
   space over the quick suite, first against a cold store (every
   candidate/kernel pair runs a real mapper) and then warm (every mapping
   replayed from blobs, zero mapper invocations).  The two reports must be
   byte-identical — cache state never leaks into the frontier — and the
   warm pass throughput is what makes iterative space refinement cheap. *)
let run_dse_cold_warm pool =
  Plaid_exp.Ascii.heading "DSE campaign: cold vs warm (tiny space, quick suite)";
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_file "plaid_bench_dse" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) @@ fun () ->
  let space = Option.get (Plaid_dse.Space.find_preset "tiny") in
  let suite = Option.get (Plaid_dse.Eval.find_suite "quick") in
  let pass () =
    let cache = Plaid_serve.Cache.create ~dir () in
    let t = Plaid_dse.Eval.create ~quick:true ~pool ~cache () in
    let c =
      Plaid_dse.Eval.run t ~space ~suite_name:"quick" ~suite
        ~strategy:Plaid_dse.Search.Exhaustive
    in
    (Plaid_dse.Report.to_string c, Plaid_serve.Cache.stats cache)
  in
  let (cold, cold_stats), t_cold = time pass in
  let (warm, warm_stats), t_warm = time pass in
  if cold <> warm then failwith "dse bench: warm report differs from cold";
  let n_cands = List.length space.Plaid_dse.Space.candidates in
  let evals = n_cands * List.length suite in
  Printf.printf
    "  %d candidates x %d kernels (%d evals)\n  cold (computed %d)  %.2fs  (%.2f s/candidate)\n  warm (disk hits %d)  %.3fs  (%.3f s/candidate)\n  speedup     %.0fx%s\n"
    n_cands (List.length suite) evals cold_stats.Plaid_serve.Cache.miss t_cold
    (t_cold /. float_of_int n_cands)
    warm_stats.Plaid_serve.Cache.hit_disk t_warm
    (t_warm /. float_of_int n_cands)
    (t_cold /. t_warm)
    (if t_cold /. t_warm >= 10.0 then "  (>= 10x: PASS)" else "  (< 10x: FAIL)")

(* --- observability overhead -------------------------------------------- *)

(* Same portfolio, tracing + metrics off vs on.  Off is the shipping
   configuration (every probe is one branch on a static flag); on bounds
   the cost of the probes themselves.  The instrumented run's counters are
   then printed as the metrics summary table. *)
let run_obs_overhead () =
  Plaid_exp.Ascii.heading "Observability overhead (mapper portfolio, sequential)";
  let off, t_off = time (fun () -> portfolio ()) in
  Plaid_obs.Metrics.set_enabled true;
  Plaid_obs.Trace.set_enabled true;
  let on, t_on = time (fun () -> portfolio ()) in
  Plaid_obs.Trace.set_enabled false;
  Plaid_obs.Metrics.set_enabled false;
  let ii o =
    match o.Plaid_mapping.Driver.mapping with
    | Some m -> m.Plaid_mapping.Mapping.ii
    | None -> -1
  in
  if List.map ii off <> List.map ii on then
    failwith "obs bench: instrumented outcomes differ from plain";
  Printf.printf "  obs off     %.2fs\n  obs on      %.2fs\n  delta       %+.1f%%\n" t_off t_on
    (((t_on /. t_off) -. 1.0) *. 100.0);
  Printf.printf "  spans recorded: %d\n\n" (Plaid_obs.Trace.span_count ());
  Printf.printf "metrics summary (instrumented run):\n";
  Format.printf "%a@?" Plaid_obs.Metrics.pp_summary (Plaid_obs.Metrics.snapshot ())

(* --- serve-path telemetry overhead ------------------------------------- *)

(* The serve path is always instrumented in production ([plaidc serve] arms
   the registry unconditionally), so this section bounds what that costs on
   the hot path: the same warm batch through Service.run_batch with the
   registry disarmed vs armed.  Warm passes isolate the probe cost — every
   request is a cache hit, so the mapper's own runtime doesn't drown the
   histogram bumps.  Responses must stay byte-identical either way. *)
let run_serve_obs_overhead () =
  Plaid_exp.Ascii.heading "Serve-path telemetry overhead (warm batch, metrics off vs on)";
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_file "plaid_bench_serve_obs" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) @@ fun () ->
  let requests =
    List.map
      (fun e ->
        Plaid_serve.Service.Map
          { kernel = Plaid_workloads.Suite.name e; arch = "plaid"; seed = 2025;
            deadline_ms = None })
      Plaid_workloads.Suite.table2
  in
  let cache = Plaid_serve.Cache.create ~dir () in
  let svc = Plaid_serve.Service.create ~cache () in
  ignore (Plaid_serve.Service.run_batch svc requests) (* populate the cache *);
  let rounds = 50 in
  let payloads rs =
    List.map
      (function
        | Plaid_serve.Service.Payload { payload; _ } -> payload
        | Plaid_serve.Service.Failure msg -> "err " ^ msg)
      rs
  in
  let pass () =
    let last = ref [] in
    for _ = 1 to rounds do
      last := payloads (Plaid_serve.Service.run_batch svc requests)
    done;
    !last
  in
  let off, t_off = time pass in
  Plaid_obs.Metrics.set_enabled true;
  let on, t_on = time pass in
  Plaid_obs.Metrics.set_enabled false;
  if off <> on then failwith "serve obs bench: instrumented responses differ from plain";
  let n = rounds * List.length requests in
  Printf.printf
    "  %d warm requests/pass\n  metrics off  %.3fs  (%.1f us/req)\n  metrics on   %.3fs  (%.1f us/req)\n  delta        %+.1f%%\n"
    n t_off
    (t_off /. float_of_int n *. 1e6)
    t_on
    (t_on /. float_of_int n *. 1e6)
    (((t_on /. t_off) -. 1.0) *. 100.0)

let () =
  Plaid_util.Pool.with_pool ~size:jobs run_experiments;
  run_speedup ();
  run_cache_cold_warm ();
  Plaid_util.Pool.with_pool ~size:jobs run_dse_cold_warm;
  run_fault_repair ();
  run_obs_overhead ();
  run_serve_obs_overhead ();
  run_microbenches ();
  print_endline "\nbench: done"
