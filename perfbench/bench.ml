(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--work DIR] [--nproc N]

   Runs one workload (compile_cold, serve_warm, dse_cold, run_replay),
   prints run facts and every figure by name with its unit, and ends with
   one JSON line:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With --trace 0 the metrics are the end-to-end figures of an untraced
   run; with --trace 1 they are the per-layer figures of a separate traced
   pass.  Deterministic outputs (II geomean, failure count, cache hit split,
   report and blob digests, counter-based layer figures) are recorded per
   (workload, seed, trace, code) under the work directory, the code being
   this executable and the kernel sources it reads; a later run of the same
   code with the same key that disagrees fails.  A change to the program
   starts a new record. *)

let workloads =
  [ ("compile_cold", Compile_cold.run); ("serve_warm", Serve_warm.run);
    ("dse_cold", Dse_cold.run); ("run_replay", Run_replay.run) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (compile_cold|serve_warm|dse_cold|run_replay) --seed N \
     --seconds S --trace 0|1 [--work DIR] [--nproc N]";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  let work = Option.value ~default:".bench_build/perfbench-work" (List.assoc_opt "work" kv) in
  let nproc =
    if List.mem_assoc "nproc" kv then int "nproc" else Domain.recommended_domain_count ()
  in
  ( workload, run,
    { Common.seed = int "seed"; seconds = float_of_int seconds; traced = trace = 1;
      work = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ())); nproc },
    work )

(* The code a record belongs to: this executable, which links lib/, and
   the kernel sources serve_warm and run_replay read. *)
let code_id () =
  List.map Digest.file (Sys.executable_name :: Serve_warm.plc_files ())
  |> String.concat "" |> Digest.string |> Digest.to_hex

(* Compare this run's deterministic outputs with the first run recorded
   for the same key; record them if none is. *)
let check_determinism ~root ~key det =
  let dir = Filename.concat root "det" in
  Common.mkdir_p dir;
  let path = Filename.concat dir (key ^ ".txt") in
  let lines = List.map (fun (k, v) -> k ^ " " ^ v) det in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let recorded = String.split_on_char '\n' (In_channel.input_all ic) in
    close_in ic;
    let diffs = List.filter (fun l -> not (List.mem l recorded)) lines in
    List.iter (fun l -> Printf.eprintf "determinism: %s differs from %s\n" l path) diffs;
    diffs = []
  end
  else begin
    let oc = open_out_bin path in
    output_string oc (String.concat "\n" lines);
    close_out oc;
    true
  end

let () =
  let workload, run, ctx, root = parse_args () in
  Common.mkdir_p ctx.work;
  let r = Fun.protect ~finally:(fun () -> Common.rm_rf ctx.work) (fun () -> run ctx) in
  let metrics =
    if ctx.traced then
      List.map (fun (name, v) -> Common.m name (Layers.unit_of name) v) r.layers
    else r.e2e
  in
  let det =
    r.det
    @
    if ctx.traced then
      List.filter_map
        (fun (name, v) ->
          if Layers.deterministic name then Some (name, Printf.sprintf "%.9g" v) else None)
        r.layers
    else []
  in
  let key =
    Printf.sprintf "%s-seed%d-trace%d-%s" workload ctx.seed (Bool.to_int ctx.traced)
      (String.sub (code_id ()) 0 16)
  in
  let same = check_determinism ~root ~key det in
  let facts =
    [ ("workload", workload); ("seed", string_of_int ctx.seed);
      ("seconds", Printf.sprintf "%g" ctx.seconds); ("trace", string_of_bool ctx.traced);
      ("nproc", string_of_int ctx.nproc);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version); ("fingerprint_version", Plaid_serve.Fingerprint.version) ]
    @ r.facts
  in
  List.iter (fun (k, v) -> Printf.printf "fact %s = %s\n" k v) facts;
  List.iter (fun (k, v) -> Printf.printf "deterministic %s = %s\n" k v) det;
  let show kind (x : Common.metric) =
    Printf.printf "%s %s = %.6g %s\n" kind x.name x.value x.unit_
  in
  List.iter (show "workload") r.headline;
  List.iter (show (if ctx.traced then "layer" else "metric")) metrics;
  Printf.printf "fail_ratio = %d/%d\n" r.failed r.attempted;
  (match List.find_opt (fun (x : Common.metric) -> not (Float.is_finite x.value)) metrics with
  | Some x ->
    Printf.eprintf "perfbench: %s is not a finite number\n" x.name;
    exit 1
  | None -> ());
  (* a dropped span would make every span-based figure read low *)
  let dropped = if ctx.traced then List.assoc "obs.trace_dropped" r.layers else 0.0 in
  if dropped > 0.0 then Printf.eprintf "perfbench: the trace ring dropped %.0f spans\n" dropped;
  let correct = r.failed = 0 && r.attempted > 0 && same && dropped = 0.0 in
  let open Plaid_obs.Json in
  let metric (x : Common.metric) = (x.name, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ]) in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool correct); ("attempted", Num (float_of_int r.attempted));
            ("failed", Num (float_of_int r.failed)); ("metrics", Obj (List.map metric metrics)) ]));
  if not correct then exit 1
