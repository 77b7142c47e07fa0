(* Shared plumbing for the workloads: run context, clocks, the benchmark's
   own spans, scratch directories, and the result record every workload
   fills in. *)

type ctx = {
  seed : int;
  seconds : float;  (** length of the measured phase *)
  traced : bool;
  work : string;  (** scratch directory inside the checkout *)
  nproc : int;
}

(* The mapper seed is fixed, so every run compiles the same search and
   timings compare across workload seeds; [--seed] draws the inputs around
   it (pair and request order, simulation data). *)
let mapper_seed = 2025

let now = Plaid_obs.Trace.Clock.now_ns
let since = Plaid_obs.Trace.Clock.seconds_since

let timed f =
  let t0 = now () in
  let v = f () in
  (v, since t0)

(* A benchmark span around one stage call; a single branch when tracing is
   off.  Names are "<layer>.<stage>" so self time can be charged per layer. *)
let span name f = Plaid_obs.Trace.with_span ~cat:"bench" name f

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

(* A fresh, empty directory under the work root. *)
let fresh_dir ctx name =
  let d = Filename.concat ctx.work name in
  rm_rf d;
  mkdir_p d;
  d

(* Set-up runs at least three times, and a short one again until a second
   of set-up has passed (at most 25 runs); the last result is kept and the
   median time reported, so one slow set-up does not move [setup_s]. *)
let repeat_setup ?(discard = ignore) f =
  let rec go times total =
    let v, dt = timed f in
    let times = dt :: times and total = total +. dt in
    let n = List.length times in
    if (n >= 3 && total >= 1.0) || n >= 25 then (v, Perfbench.Stats.median times)
    else begin
      discard v;
      go times total
    end
  in
  go [] 0.0

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Timed phases repeat fixed-size passes until [seconds] have elapsed,
   with at least [min_passes]. *)
let passes ctx ~min_passes f =
  let t0 = now () in
  let rec go i acc =
    if i >= min_passes && since t0 >= ctx.seconds then (List.rev acc, since t0)
    else go (i + 1) (f i :: acc)
  in
  go 0 []

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* The share of ops [op_ms_tail10] averages over. *)
let tail_share = 0.1

(* The three op metrics from [(op, ms)] samples of the measured phase, each
   sample at its op's fastest repeat (see [Stats.best_times]), and the
   sample count behind them. *)
let op_metrics samples =
  let times, ops = Perfbench.Stats.best_times samples in
  let n = List.length times in
  ( [ m "op_ms_geomean" "ms" (Perfbench.Stats.geomean times);
      m "op_ms_tail10" "ms" (Perfbench.Stats.tail_mean ~share:tail_share times);
      m "ops_per_s" "1/s" (float_of_int n *. 1e3 /. List.fold_left ( +. ) 0.0 times) ],
    Printf.sprintf "%d samples of %d ops" n ops )

type result = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** untraced runs *)
  layers : (string * float) list;  (** traced runs; names from {!Layers} *)
  headline : metric list;
      (** the workload's own end-to-end figures, under their descriptive
          names, printed for humans *)
  facts : (string * string) list;
  det : (string * string) list;
      (** deterministic outputs: identical for a seed on every run *)
}

(* Snapshot accessors over the program's metrics registry. *)
let counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Plaid_obs.Metrics.counters)

let hist_p50 snap name =
  match List.assoc_opt name snap.Plaid_obs.Metrics.histograms with
  | Some h when h.Plaid_obs.Metrics.count > 0 -> Plaid_obs.Metrics.percentile h 50.0
  | _ -> 0.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Arm every recorder for a traced pass, starting from empty registries. *)
let arm_tracing () =
  Plaid_obs.Trace.set_capacity (1 lsl 18);
  Plaid_obs.Trace.reset ();
  Plaid_obs.Metrics.reset ();
  Plaid_mapping.Explain.reset ();
  Plaid_obs.Metrics.set_enabled true;
  Plaid_mapping.Explain.set_enabled true;
  Plaid_obs.Trace.set_enabled true

let disarm_tracing ~keep_metrics =
  Plaid_obs.Trace.set_enabled false;
  Plaid_mapping.Explain.set_enabled false;
  Plaid_obs.Metrics.set_enabled keep_metrics

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* The fabrics the suite workloads compile for, under the names mapfiles
   record. *)
let st_fabric () = Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st_4x4"
let plaid_fabric () = Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"plaid_2x2" ()

(* Finds a fabric among [archs] by the name a mapfile records. *)
let resolver archs name = List.find_opt (fun (a : Plaid_arch.Arch.t) -> a.name = name) archs

let suite_resolver () = resolver [ st_fabric (); (plaid_fabric ()).Plaid_core.Pcu.arch ]

(* A mapping blob made at set-up, loaded without validation. *)
let load_blob ~resolve blob =
  match Plaid_mapping.Mapfile.of_string ~validate:false ~resolve blob with
  | Ok m -> m
  | Error e -> failwith ("a set-up blob does not load: " ^ e)

(* (II, config depth) of a mapping, as [Stats.ii_geomean] takes it. *)
let ii_and_depth (m : Plaid_mapping.Mapping.t) =
  (Some m.ii, m.arch.Plaid_arch.Arch.config.entries)

let best_of_algos =
  [ Plaid_mapping.Driver.Pf Plaid_mapping.Pathfinder.default;
    Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.default ]

(* Simulation input for a loaded mapping, drawn like [plaidc run] draws it. *)
let spm_of_dfg ~seed (g : Plaid_ir.Dfg.t) =
  let spm = Plaid_sim.Spm.create () in
  let rng = Plaid_util.Rng.create seed in
  List.iter
    (fun (name, extent) ->
      Plaid_sim.Spm.ensure spm name extent;
      for i = 0 to extent - 1 do
        Plaid_sim.Spm.write spm name i (Plaid_util.Rng.int rng 256 - 128)
      done)
    (Plaid_ir.Dfg.arrays g);
  spm

(* A kernel source file through the front end, as the serve [compile]
   request lowers it. *)
let dfg_of_plc file =
  match Plaid_ir.Parse.kernel_of_file file with
  | Ok kernel -> fst (Plaid_ir.Opt.optimize (Plaid_ir.Lower.lower kernel))
  | Error _ -> failwith ("cannot parse " ^ file)

let price (m : Plaid_mapping.Mapping.t) =
  Plaid_model.Power.fabric_total m +. Plaid_model.Energy.fabric_energy m
  +. Plaid_model.Area.fabric_total m.arch
