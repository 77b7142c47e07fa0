(* The per-layer metrics a traced run reports.  Every traced run prints the
   whole table; a layer its workload does not exercise reads 0.  Values
   come from three places, all outside [lib/]: the benchmark's own spans
   around stage calls, the program's existing counters, histograms and
   spans, and [Explain]'s per-attempt phase times. *)

open Perfbench

let algos = [ "pf"; "sa"; "hier" ]
let phases = [ "schedule"; "place"; "route" ]

(* The per-layer metrics and their units, as BENCHMARK.json at the root of
   the checkout lists them. *)
let table =
  lazy
    (let fail why = failwith ("BENCHMARK.json: " ^ why) in
     let text = try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
       with Sys_error e -> fail e
     in
     let open Plaid_obs.Json in
     let field k j = Option.bind (member k j) str in
     match of_string text with
     | Error e -> fail e
     | Ok json ->
       Option.fold ~none:[] ~some:to_list (member "per_layer" json)
       |> List.map (fun j ->
              match (field "name" j, field "unit" j) with
              | Some name, Some unit_ -> (name, unit_)
              | _ -> fail "a per_layer entry lacks a name or a unit"))

let unit_of name = List.assoc name (Lazy.force table)

(* Counter-based figures: identical on every traced run with one seed.
   Pool steals and busy time depend on scheduling and are left out. *)
let deterministic name =
  List.mem (unit_of name) [ "count"; "ratio" ]
  && not (List.mem name [ "util.pool_steals"; "util.pool_busy_ratio" ])

(* Durations (microseconds) of the benchmark's own spans with this name;
   a program span may carry the same name under another category. *)
let durations spans name =
  List.filter_map
    (fun (s : Selftime.span) -> if s.name = name && s.cat = "bench" then Some s.dur else None)
    spans

let total spans name = List.fold_left ( +. ) 0.0 (durations spans name)

let mean spans name =
  match durations spans name with
  | [] -> 0.0
  | ds -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)

(* Figures every workload derives the same way; [extras] (probe timings,
   outcome ratios, overhead) override or complete them. *)
let collect ~spans ~snap ~extras =
  let c = Common.counter snap in
  let attempts = Plaid_mapping.Explain.attempts () in
  let phase_ms ?algo ph =
    List.fold_left
      (fun acc (a : Plaid_mapping.Explain.attempt) ->
        if Option.fold ~none:true ~some:(String.equal a.at_algo) algo then
          List.fold_left
            (fun acc (p : Plaid_mapping.Explain.phase) ->
              if p.ph_name = ph then acc +. p.ph_ms else acc)
            acc a.at_phases
        else acc)
      0.0 attempts
  in
  let verify_us = total spans "sim.verify" in
  let self = Selftime.by_layer spans in
  let derived =
    [ ("ir.lower_us", mean spans "ir.lower");
      ("plaid.motif_ms", mean spans "plaid.motif" /. 1e3);
      ("plaid.hier_s", total spans "plaid.hier" /. 1e6);
      ("mapping.best_of_s", Selftime.covered ~cat:"driver" spans "driver.best_of" /. 1e6) ]
    @ List.map (fun ph -> ("mapping." ^ ph ^ "_ms", phase_ms ph)) phases
    @ List.concat_map
        (fun ph ->
          List.map (fun a -> (Printf.sprintf "mapping.%s_ms.%s" ph a, phase_ms ~algo:a ph)) algos)
        phases
    @ [ ("mapping.ii_attempts", float_of_int (c "driver/ii_attempts"));
        ("mapping.wasted_ii_ratio",
         Common.ratio (c "driver/wasted_ii_attempts") (c "driver/ii_attempts"));
        ("mapping.route_finds", float_of_int (c "route/finds"));
        ("mapping.route_memo_hit_ratio",
         Common.ratio (c "route/memo_hits") (c "route/memo_hits" + c "route/memo_misses"));
        ("mapping.pf_iterations", float_of_int (c "pf/iterations"));
        ("mapping.pf_reroute_ratio",
         Common.ratio (c "pf/rerouted_edges") (c "pf/rerouted_edges" + c "pf/kept_edges"));
        ("mapping.sa_moves", float_of_int (c "sa/moves"));
        ("mapping.sa_accept_ratio", Common.ratio (c "sa/accepts") (c "sa/moves"));
        ("mapping.validate_us", mean spans "mapping.validate");
        ("mapping.mapfile_write_us", mean spans "mapping.mapfile_write");
        ("mapping.bitstream_us", mean spans "mapping.bitstream");
        ("sim.verify_ms", mean spans "sim.verify" /. 1e3);
        ("sim.ns_per_cycle",
         if c "sim/cycles" = 0 then 0.0 else verify_us *. 1e3 /. float_of_int (c "sim/cycles"));
        ("sim.firings", float_of_int (c "sim/firings"));
        ("sim.wire_hops", float_of_int (c "sim/wire_hops"));
        ("model.price_us", mean spans "model.price");
        ("serve.request_ms_p50", Common.hist_p50 snap "serve_request_ms");
        ("serve.cache_ms_p50", Common.hist_p50 snap "serve_cache_ms");
        ("dse.kernel_eval_ms_p50", Common.hist_p50 snap "dse_kernel_eval_ms");
        ("dse.mapper_invocations", float_of_int (c "dse_mapper_invocations"));
        ("util.pool_tasks", float_of_int (c "pool/tasks"));
        ("util.pool_steals", float_of_int (c "pool/steals"));
        ("obs.trace_dropped", float_of_int (Plaid_obs.Trace.dropped ())) ]
  in
  let table = Lazy.force table in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then
        failwith ("perfbench: " ^ name ^ " is not a per_layer metric of BENCHMARK.json"))
    (extras @ derived);
  (* self time of a program span category the table has no
     <layer>.self_ms for is not reported *)
  let self = List.map (fun (l, us) -> (l ^ ".self_ms", us /. 1e3)) self in
  List.map
    (fun (name, _) ->
      let pick l = List.assoc_opt name l in
      let v = List.find_map pick [ extras; derived; self ] in
      (name, Option.value ~default:0.0 v))
    table

(* Stop recording and read what the traced pass left behind. *)
let harvest ~keep_metrics =
  let snap = Plaid_obs.Metrics.snapshot () in
  let spans = Selftime.of_trace (Plaid_obs.Trace.export ()) in
  Common.disarm_tracing ~keep_metrics;
  (spans, snap)
