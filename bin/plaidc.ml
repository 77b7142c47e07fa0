(* plaidc: command-line driver for the Plaid toolchain.

   Subcommands:
     list                         show the evaluated kernel suite
     map -k <kernel> -a <arch>    compile one kernel and report the mapping
     motifs -k <kernel>           run motif generation, dump DOT with clusters
     exp [-e <name>]              regenerate the paper's tables and figures
     dse                          explore an architecture space, report the Pareto frontier
     serve                        batch compile daemon over the mapping cache
     cache <action>               operate the on-disk mapping cache *)

open Cmdliner

(* Uniform bad-name handling: every unknown experiment, strategy, space,
   suite or cache action prints the valid choices to stderr and exits 2,
   as cmdliner does for unknown subcommands and -a names. *)
let die_unknown ~what name choices : 'a =
  Printf.eprintf "plaidc: unknown %s '%s' (choose from %s)\n" what name
    (String.concat ", " choices);
  exit 2

let list_cmd =
  let run () : int =
    let () =
    Plaid_exp.Ascii.table
      ~headers:[ "kernel"; "domain"; "unroll"; "nodes"; "compute"; "memory" ]
      (List.map
         (fun e ->
           let g = Plaid_workloads.Suite.dfg e in
           [ Plaid_workloads.Suite.name e;
             Plaid_workloads.Suite.domain_to_string e.Plaid_workloads.Suite.domain;
             string_of_int e.Plaid_workloads.Suite.unroll;
             string_of_int (Plaid_ir.Dfg.n_nodes g);
             string_of_int (Plaid_ir.Dfg.n_compute g);
             string_of_int (Plaid_ir.Dfg.n_memory g) ])
         Plaid_workloads.Suite.table2)
    in
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the evaluated kernels (Table 2 suite)")
    Term.(const run $ const ())

let kernel_arg =
  let doc = "Kernel name, e.g. gemm_u2 (see 'plaidc list')." in
  Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~docv:"KERNEL" ~doc)

(* -a resolves before any work runs: a name from the fabric table, an ADL
   file as @FILE, or (for map, rtl and faults) the spatial baseline.  A bad
   value is a cmdliner error, so it lists the choices on stderr and exits 2
   like every other bad name. *)
type arch =
  | Named of Plaid_core.Fabrics.fabric
  | Adl of string * Plaid_core.Fabrics.built
  | Spatial

let built_of = function
  | Named f -> Plaid_core.Fabrics.build f
  | Adl (_, b) -> b
  | Spatial -> { Plaid_core.Fabrics.arch = Plaid_spatial.Spatial.arch (); pcu = None }

(* every fabric maps with its own mapper: hierarchical when it has a PCU
   view, the PathFinder + SA portfolio otherwise *)
let map_on ~pool (b : Plaid_core.Fabrics.built) ~dfg ~seed =
  Plaid_serve.Compile.run ~pool (Plaid_serve.Compile.for_fabric b.pcu) ~arch:b.arch ~dfg ~seed

let arch_arg ~spatial =
  let choices = Plaid_core.Fabrics.names @ if spatial then [ "spatial" ] else [] in
  let parse s =
    match Plaid_core.Fabrics.of_name s with
    | Some f -> Ok (Named f)
    | None when spatial && s = "spatial" -> Ok Spatial
    | None when String.length s > 1 && s.[0] = '@' ->
      let path = String.sub s 1 (String.length s - 1) in
      Result.map (fun b -> Adl (path, b)) (Plaid_core.Fabrics.of_file path)
    | None ->
      Error
        (Printf.sprintf "unknown architecture '%s' (choose from %s, or @FILE.adl)" s
           (String.concat ", " choices))
  in
  let print ppf = function
    | Named f -> Format.pp_print_string ppf (Plaid_core.Fabrics.name f)
    | Adl (path, _) -> Format.fprintf ppf "@@%s" path
    | Spatial -> Format.pp_print_string ppf "spatial"
  in
  let doc =
    Printf.sprintf "Target architecture: %s, or @FILE for an ADL architecture file."
      (String.concat ", " choices)
  in
  Arg.(
    value
    & opt (conv' (parse, print)) (Named Plaid_core.Fabrics.Plaid)
    & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

let seed_arg =
  Arg.(value & opt int 2025 & info [ "seed" ] ~docv:"SEED" ~doc:"Mapper RNG seed.")

let jobs_arg =
  let doc =
    "Worker-pool width for parallel mapping and experiments.  Defaults to the number of \
     cores.  Results are identical for every value of $(docv); -j 1 disables parallelism."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Bad numeric arguments follow the same contract as bad names: say what
   was expected on stderr and exit 2. *)
let die_bad_arg ~what n ~expected : 'a =
  Printf.eprintf "plaidc: invalid %s %d (expected %s)\n" what n expected;
  exit 2

(* Every subcommand resolves -j the same way: explicit value, else the
   domain count the runtime recommends for this machine. *)
let with_jobs jobs f =
  let size =
    match jobs with
    | Some n when n < 1 -> die_bad_arg ~what:"jobs count" n ~expected:"a positive integer"
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  Plaid_util.Pool.with_pool ~size f

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of this invocation and write it to $(docv) as Chrome \
           trace-event JSON (load it at https://ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & flag
    & info [ "metrics" ]
        ~doc:"Print a summary of internal counters and histograms to stderr on exit.")

(* Enable tracing/metrics around [f] and emit the artifacts afterwards.
   Everything lands on stderr or in the trace file, never stdout, so the
   command's report bytes are identical with or without these flags. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Plaid_obs.Trace.set_enabled true;
  if metrics then Plaid_obs.Metrics.set_enabled true;
  let finish () =
    (match trace with
    | None -> ()
    | Some path ->
      Plaid_obs.Trace.write ~path;
      let dropped = Plaid_obs.Trace.dropped () in
      Printf.eprintf "trace: %d spans -> %s%s\n"
        (Plaid_obs.Trace.span_count ())
        path
        (if dropped > 0 then Printf.sprintf " (%d dropped)" dropped else "");
      (* a truncated trace silently lies about where time went — make the
         overflow impossible to miss *)
      if dropped > 0 then
        Printf.eprintf
          "warning: trace ring overflowed; %d oldest spans are missing from %s (raise \
           capacity with Trace.set_capacity)\n"
          dropped path);
    if metrics then
      Format.eprintf "-- metrics --@.%a@?" Plaid_obs.Metrics.pp_summary
        (Plaid_obs.Metrics.snapshot ())
  in
  Fun.protect ~finally:finish f

(* one-shot commands price at the experiments' outer trip count *)
let outer = Plaid_model.Energy.default_outer

let report_mapping name (m : Plaid_mapping.Mapping.t) =
  Printf.printf "%s on %s: II=%d, cycles=%d (outer-scaled %d)\n" name
    m.arch.Plaid_arch.Arch.name m.ii
    (Plaid_mapping.Mapping.perf_cycles m)
    Plaid_model.Energy.(cycles ~outer (Modulo m));
  Printf.printf "fabric power %.1f uW, energy %.1f pJ, area %.0f um2\n"
    (Plaid_model.Power.fabric_total m)
    Plaid_model.Energy.(energy ~outer (Modulo m))
    (Plaid_model.Area.fabric_total m.arch)

(* One bound on simulated work, checked before any scratchpad, reference
   or simulator array exists: past it, one stderr line and exit 1. *)
let within_sim_bound g simulate =
  match Plaid_sim.Cycle_sim.check_work g with
  | Error msg ->
    Printf.eprintf "plaidc: %s\n" msg;
    1
  | Ok () -> simulate ()

(* The post-mapping diagnostic behind `plaidc map --report`: II-search
   timeline, per-phase time breakdown, and congestion/occupancy heatmaps.
   The notice goes to stderr so the mapping report on stdout stays
   byte-identical with or without the flag. *)
let write_report ~outcome ~kernel ~seed ~arch path =
  let content =
    if Filename.check_suffix path ".json" then
      Plaid_obs.Json.to_string (Plaid_mapping.Explain.json ~outcome ~kernel ~seed ~arch ())
      ^ "\n"
    else Plaid_mapping.Explain.ascii ~outcome ~kernel ~seed ~arch ()
  in
  match open_out path with
  | exception Sys_error msg ->
    Printf.eprintf "plaidc: %s\n" msg;
    exit 2
  | oc ->
    output_string oc content;
    close_out oc;
    Printf.eprintf "wrote mapping report %s\n" path

let map_cmd =
  let viz_arg =
    Arg.(value & flag & info [ "viz" ] ~doc:"Print per-slot fabric occupancy and routes.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o" ] ~docv:"FILE" ~doc:"Save the mapping object file here.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write a post-mapping diagnostic report to $(docv): per-phase time breakdown \
             (schedule/place/route per II attempt), PE-occupancy and channel-overuse \
             heatmaps, and the II-search timeline.  JSON when $(docv) ends in .json, \
             ASCII otherwise.  The mapping itself is unchanged.")
  in
  let run kernel arch seed viz out report jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    if report <> None then Plaid_mapping.Explain.set_enabled true;
    let maybe_report ~outcome rarch =
      match report with
      | None -> ()
      | Some path -> write_report ~outcome ~kernel ~seed ~arch:rarch path
    in
    match Plaid_workloads.Suite.find kernel with
    | exception Not_found ->
      Printf.eprintf "unknown kernel %s; try 'plaidc list'\n" kernel;
      1
    | entry ->
      with_jobs jobs @@ fun pool ->
      match arch with
      | Spatial -> (
        let sp_arch = Plaid_spatial.Spatial.arch () in
        match Plaid_spatial.Spatial.run ~seed (Plaid_workloads.Suite.dfg entry) with
        | Error e ->
          maybe_report ~outcome:Failed sp_arch;
          Printf.eprintf "spatial mapping failed: %s\n" e;
          1
        | Ok r ->
          maybe_report ~outcome:(Segments (List.length r.mappings)) sp_arch;
          let run = Plaid_model.Energy.Segments r.mappings in
          Printf.printf "%s on spatial 4x4: %d segments, cycles=%d, energy=%.1f pJ\n" kernel
            (List.length r.mappings)
            (Plaid_model.Energy.cycles ~outer run)
            (Plaid_model.Energy.energy ~outer run);
          0)
      | Named _ | Adl _ -> (
        let built = built_of arch in
        let mapping = map_on ~pool built ~dfg:(Plaid_workloads.Suite.dfg entry) ~seed in
        maybe_report
          ~outcome:(match mapping with Some m -> Mapped m | None -> Failed)
          built.arch;
        match mapping with
        | None ->
          Printf.eprintf "mapper found no valid mapping\n";
          1
        | Some m ->
          report_mapping kernel m;
          (* verify against the golden reference while we're here *)
          let k =
            Plaid_ir.Unroll.apply entry.Plaid_workloads.Suite.base
              entry.Plaid_workloads.Suite.unroll
          in
          let spm =
            Plaid_sim.Spm.of_kernel k ~params:(Plaid_workloads.Suite.params entry) ~seed:77
          in
          let sim_ok =
            match Plaid_sim.Cycle_sim.verify m spm with
            | Ok stats ->
              Printf.printf "simulation: bit-exact vs reference (%d firings, %d wire hops)\n"
                stats.fu_firings stats.wire_hops;
              true
            | Error msg ->
              Printf.eprintf "simulation MISMATCH: %s\n" msg;
              false
          in
          if viz then Format.printf "%a@." Plaid_mapping.Viz.pp m;
          (match out with
          | None -> ()
          | Some path ->
            Plaid_mapping.Mapfile.save m ~path;
            Printf.printf "saved %s\n" path);
          if sim_ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Map one kernel onto an architecture and verify it")
    Term.(
      const run $ kernel_arg $ arch_arg ~spatial:true $ seed_arg $ viz_arg $ out_arg
      $ report_arg $ jobs_arg $ trace_arg $ metrics_arg)

let run_cmd =
  let file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Mapping object file from 'plaidc map -o'.")
  in
  let no_validate_arg =
    Arg.(
      value
      & flag
      & info [ "no-validate" ]
          ~doc:
            "Skip mapping validation after loading (failure injection: lets a corrupted \
             mapfile reach the simulator so mismatch handling can be tested).")
  in
  (* a mapfile names its architecture by the built fabric's own name *)
  let resolve name =
    match Plaid_core.Fabrics.of_arch_name name with
    | Some b -> Some b.arch
    | None ->
      let spatial = Plaid_spatial.Spatial.arch () in
      if spatial.name = name then Some spatial else None
  in
  let run file no_validate trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    match
      Plaid_mapping.Mapfile.load ~validate:(not no_validate) ~resolve ~path:file
    with
    | Error e ->
      (* unreadable, truncated, or corrupt input: one line, uniform exit 2 *)
      Printf.eprintf "plaidc: %s: %s\n" file e;
      2
    | Ok m ->
      let g = m.Plaid_mapping.Mapping.dfg in
      Printf.printf "loaded %s on %s: II=%d\n" g.Plaid_ir.Dfg.name
        m.arch.Plaid_arch.Arch.name m.ii;
      within_sim_bound g @@ fun () ->
      (* run against deterministic data like the kernel flow would *)
      let spm = Plaid_sim.Spm.create () in
      let rng = Plaid_util.Rng.create 77 in
      List.iter
        (fun (name, extent) ->
          Plaid_sim.Spm.ensure spm name extent;
          for i = 0 to extent - 1 do
            Plaid_sim.Spm.write spm name i (Plaid_util.Rng.int rng 256 - 128)
          done)
        (Plaid_ir.Dfg.arrays g);
      let sim_ok =
        match Plaid_sim.Cycle_sim.verify m spm with
        | Ok stats ->
          Printf.printf "simulation: bit-exact (%d cycles, %d firings)\n" stats.cycles
            stats.fu_firings;
          true
        | Error msg ->
          Printf.eprintf "simulation MISMATCH: %s\n" msg;
          false
      in
      let words_in, words_out = Plaid_sim.Host.kernel_words g in
      let cost = Plaid_sim.Host.invoke m ~words_in ~words_out in
      Printf.printf
        "host invocation: %d config + %d dma-in + %d compute + %d dma-out = %d cycles\n"
        cost.config_cycles cost.dma_in_cycles cost.compute_cycles cost.dma_out_cycles
        (Plaid_sim.Host.total cost);
      if sim_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Load a mapping object file, simulate and price it")
    Term.(const run $ file_arg $ no_validate_arg $ trace_arg $ metrics_arg)

let motifs_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write DOT here.")
  in
  let run kernel out =
    match Plaid_workloads.Suite.find kernel with
    | exception Not_found ->
      Printf.eprintf "unknown kernel %s\n" kernel;
      1
    | entry ->
      let g = Plaid_workloads.Suite.dfg entry in
      let hier = Plaid_core.Motif_gen.generate ~rng:(Plaid_util.Rng.create 11) g in
      Printf.printf "%s: %d motifs, %d/%d compute nodes covered\n" kernel
        (Array.length hier.Plaid_core.Motif_gen.motifs)
        (Plaid_core.Motif_gen.covered_compute g hier)
        (Plaid_ir.Dfg.n_compute g);
      Array.iteri
        (fun i m ->
          Printf.printf "  motif %d: %s (%s)\n" i
            (Plaid_core.Motif.kind_to_string m.Plaid_core.Motif.kind)
            (String.concat ", "
               (List.map
                  (fun v -> (Plaid_ir.Dfg.node g v).label)
                  (Plaid_core.Motif.nodes m))))
        hier.Plaid_core.Motif_gen.motifs;
      (match out with
      | None -> ()
      | Some path ->
        let clusters =
          Array.to_list hier.Plaid_core.Motif_gen.motifs
          |> List.mapi (fun i m ->
                 ( Printf.sprintf "%s %d" (Plaid_core.Motif.kind_to_string m.Plaid_core.Motif.kind) i,
                   Plaid_core.Motif.nodes m ))
        in
        Plaid_ir.Dot.write_file path (Plaid_ir.Dot.to_dot ~clusters g);
        Printf.printf "wrote %s\n" path);
      0
  in
  Cmd.v
    (Cmd.info "motifs" ~doc:"Run motif generation (Algorithm 1) on a kernel")
    Term.(const run $ kernel_arg $ out_arg)

let compile_cmd =
  let file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Kernel source file (surface syntax).")
  in
  let config_arg =
    Arg.(value & flag & info [ "config" ] ~doc:"Print the configuration bitstream listing.")
  in
  let param_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string int) []
      & info [ "p"; "param" ] ~docv:"NAME=VALUE" ~doc:"Live-in parameter value (repeatable).")
  in
  let run file arch seed show_config param_values jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    match Plaid_ir.Parse.kernel_of_file file with
    | exception Sys_error msg ->
      (* unreadable source file: same one-line, exit-2 contract as run *)
      Printf.eprintf "plaidc: %s\n" msg;
      2
    | Error e ->
      Format.eprintf "%s: %a@." file Plaid_ir.Parse.pp_error e;
      1
    | Ok kernel -> (
      match Plaid_ir.Lower.lower kernel with
      | exception Invalid_argument msg ->
        Printf.eprintf "%s: %s\n" file msg;
        1
      | lowered ->
        Format.printf "%a@." Plaid_ir.Dfg.pp_stats lowered;
        let dfg, opt_stats = Plaid_ir.Opt.optimize lowered in
        Format.printf "optimizer: %a@." Plaid_ir.Opt.pp_stats opt_stats;
        with_jobs jobs @@ fun pool ->
        match map_on ~pool (built_of arch) ~dfg ~seed with
        | None ->
          Printf.eprintf "mapper found no valid mapping\n";
          1
        | Some m ->
          report_mapping kernel.Plaid_ir.Kernel.name m;
          (* the scratchpad holds every array the kernel names, dead
             accesses the optimizer dropped included *)
          within_sim_bound lowered @@ fun () ->
          (* unspecified live-ins default to 3 so verification always runs *)
          let params =
            List.map
              (fun name ->
                (name, try List.assoc name param_values with Not_found -> 3))
              (Plaid_ir.Parse.params kernel)
          in
          let spm = Plaid_sim.Spm.of_kernel kernel ~params ~seed:77 in
          let sim_ok =
            match Plaid_sim.Cycle_sim.verify m spm with
            | Ok _ ->
              Printf.printf "simulation: bit-exact vs reference\n";
              true
            | Error msg ->
              Printf.eprintf "simulation MISMATCH: %s\n" msg;
              false
          in
          (if show_config then
             match Plaid_mapping.Bitstream.generate m with
             | Ok bs -> Format.printf "%a@." Plaid_mapping.Bitstream.pp_listing bs
             | Error e -> Printf.printf "bitstream error: %s\n" e);
          if sim_ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a kernel source file end to end")
    Term.(
      const run $ file_arg $ arch_arg ~spatial:false $ seed_arg $ config_arg $ param_arg
      $ jobs_arg $ trace_arg $ metrics_arg)

let rtl_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write Verilog here.")
  in
  let run arch out =
    let a = (built_of arch).arch in
    (match out with
    | Some path ->
      Plaid_arch.Verilog.write_file a ~path;
      let regs, muxes, wires = Plaid_arch.Verilog.stats a in
      Printf.printf "wrote %s (%d regs, %d muxes, %d wires)\n" path regs muxes wires
    | None -> print_string (Plaid_arch.Verilog.emit a));
    0
  in
  Cmd.v
    (Cmd.info "rtl" ~doc:"Emit a structural Verilog netlist of an architecture")
    Term.(const run $ arch_arg ~spatial:true $ out_arg)

let faults_cmd =
  let faults_arg =
    Arg.(value & opt int 2 & info [ "faults" ] ~docv:"N" ~doc:"Faults injected per trial.")
  in
  let trials_arg =
    Arg.(value & opt int 20 & info [ "trials" ] ~docv:"N" ~doc:"Independent fault trials.")
  in
  let repair_arg =
    Arg.(
      value
      & flag
      & info [ "repair" ]
          ~doc:
            "Repair each faulty fabric: incrementally re-place displaced nodes at the same \
             II, falling back to a full remap.  Without this flag the campaign measures \
             detection: every fault set that intersects the healthy mapping must be caught \
             by validation or simulation (exit 1 when any is).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the JSON campaign report to $(docv) ('-' for stdout).")
  in
  let run kernel arch seed nfaults trials repair json jobs trace metrics =
    if nfaults < 0 then die_bad_arg ~what:"fault count" nfaults ~expected:"a non-negative integer";
    if trials < 0 then die_bad_arg ~what:"trial count" trials ~expected:"a non-negative integer";
    with_obs ~trace ~metrics @@ fun () ->
    match Plaid_workloads.Suite.find kernel with
    | exception Not_found ->
      Printf.eprintf "unknown kernel %s; try 'plaidc list'\n" kernel;
      1
    | entry ->
      with_jobs jobs @@ fun pool ->
      let a = (built_of arch).arch in
      let dfg = Plaid_workloads.Suite.dfg entry in
      let k =
        Plaid_ir.Unroll.apply entry.Plaid_workloads.Suite.base
          entry.Plaid_workloads.Suite.unroll
      in
      let spm =
        Plaid_sim.Spm.of_kernel k ~params:(Plaid_workloads.Suite.params entry) ~seed:77
      in
      let c =
        Plaid_fault.Campaign.run ~pool ~arch:a ~dfg ~spm ~seed ~faults:nfaults ~trials
          ~repair ()
      in
      (match json with
      | Some "-" -> print_endline (Plaid_fault.Campaign.to_json_string c)
      | Some path ->
        let oc = open_out path in
        output_string oc (Plaid_fault.Campaign.to_json_string c);
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" path
      | None -> Format.printf "%a@." Plaid_fault.Campaign.pp c);
      (* Failures land on stderr so the report bytes stay clean. *)
      let failures =
        List.filter
          (fun (t : Plaid_fault.Campaign.trial) ->
            if repair then not t.t_survives && t.t_detail <> "" else t.t_affected)
          c.Plaid_fault.Campaign.c_results
      in
      List.iter
        (fun (t : Plaid_fault.Campaign.trial) ->
          Printf.eprintf "trial %d: %s MISMATCH: %s\n" t.t_index
            (if repair then "repaired mapping" else "unrepaired mapping")
            (if t.t_detail = "" then "fault set intersects mapping" else t.t_detail))
        failures;
      if failures = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a fault-injection campaign: map on the healthy fabric, break it, and measure \
          detection or repair")
    Term.(
      const run $ kernel_arg $ arch_arg ~spatial:true $ seed_arg $ faults_arg $ trials_arg
      $ repair_arg $ json_arg $ jobs_arg $ trace_arg $ metrics_arg)

let fuzz_cmd =
  let trials_arg =
    Arg.(value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc:"Fuzz trials to run.")
  in
  let shrink_arg =
    Arg.(
      value
      & flag
      & info [ "shrink" ]
          ~doc:"Minimize every failing case to a small repro before reporting it.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Write each failing case (shrunk when --shrink is on) to $(docv) as a \
             replayable .case file; check them into test/corpus/ to make the regression \
             permanent.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-cases" ] ~docv:"DIR"
          ~doc:"Write every generated case to $(docv) (corpus seeding, debugging).")
  in
  let run seed trials shrink corpus dump jobs trace metrics =
    if trials < 0 then die_bad_arg ~what:"trial count" trials ~expected:"a non-negative integer";
    with_obs ~trace ~metrics @@ fun () ->
    with_jobs jobs @@ fun pool ->
    let r = Plaid_check.Fuzz.run ~pool ~shrink ~seed ~trials () in
    (* The whole report — failing cases included — goes to stdout and is
       byte-identical for every -j; file-writing notices go to stderr. *)
    print_string (Plaid_check.Fuzz.report_string r);
    let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
    (match dump with
    | None -> ()
    | Some dir ->
      ensure_dir dir;
      List.iter
        (fun (t : Plaid_check.Fuzz.trial) ->
          Plaid_check.Case.save t.Plaid_check.Fuzz.t_case
            ~path:(Filename.concat dir (Printf.sprintf "seed%d_trial%03d.case" seed t.t_index)))
        r.Plaid_check.Fuzz.f_results;
      Printf.eprintf "dumped %d cases to %s\n" trials dir);
    let fails = Plaid_check.Fuzz.failures r in
    (match corpus with
    | Some dir when fails <> [] ->
      ensure_dir dir;
      List.iter
        (fun (t : Plaid_check.Fuzz.trial) ->
          let c = Option.value t.Plaid_check.Fuzz.t_shrunk ~default:t.t_case in
          let kind =
            match t.t_outcome.Plaid_check.Oracle.o_failure with
            | Some f -> f.Plaid_check.Oracle.fail_kind
            | None -> "fail"
          in
          Plaid_check.Case.save c
            ~path:
              (Filename.concat dir (Printf.sprintf "%s_seed%d_trial%03d.case" kind seed t.t_index)))
        fails;
      Printf.eprintf "saved %d failing cases to %s\n" (List.length fails) dir
    | _ -> ());
    if fails = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run a differential fuzz campaign: random DFGs and fabrics through every mapper, \
          cross-checked against the exact search and the golden reference simulator")
    Term.(
      const run $ seed_arg $ trials_arg $ shrink_arg $ corpus_arg $ dump_arg $ jobs_arg
      $ trace_arg $ metrics_arg)

let exp_cmd =
  let exp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "experiment" ] ~docv:"NAME"
          ~doc:
            "Which experiment to run: table2, fig2, fig12, fig13, fig14, fig15, fig16, fig17, \
             fig18, fig19, utilization, ablations, dse, resilience, verify.  Default: all.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Persistent mapping cache for experiment reruns: per-kernel mappings are \
             fingerprinted and stored under $(docv), so a warm rerun skips every mapping \
             search.  Report bytes are identical with the cache cold, warm, or absent.")
  in
  let run name seed jobs cache trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_jobs jobs @@ fun pool ->
    let cache = Option.map (fun dir -> Plaid_serve.Cache.create ~dir ()) cache in
    let ctx = Plaid_exp.Ctx.create ~seed ~pool ?cache () in
    match name with
    | None ->
      ignore (Plaid_exp.Experiments.all ~pool ctx);
      0
    | Some n -> (
      match List.assoc_opt n Plaid_exp.Experiments.runners with
      | Some f ->
        ignore (Plaid_exp.Experiments.run ~pool ctx [ (n, f) ]);
        0
      | None ->
        die_unknown ~what:"experiment" n (List.map fst Plaid_exp.Experiments.runners))
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ exp_arg $ seed_arg $ jobs_arg $ cache_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------- serving & cache ops *)

let default_cache_dir () =
  match Sys.getenv_opt "PLAID_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> ".plaid-cache"

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Root of the on-disk mapping cache.  Defaults to \\$PLAID_CACHE_DIR, \
           else .plaid-cache.")

let serve_cmd =
  let mem_budget_arg =
    Arg.(
      value
      & opt int 64
      & info [ "mem-budget" ] ~docv:"MIB"
          ~doc:"In-memory cache tier budget in MiB (LRU beyond it).")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of stdin/stdout; connections are \
             served one at a time, each speaking the newline-delimited protocol.")
  in
  let interval_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:"Print a metrics snapshot to stderr every $(docv) seconds while serving.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt int 1000
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-request threshold: requests above $(docv) milliseconds emit a structured \
             warning (visible with PLAID_LOG=warn).")
  in
  let run cache_dir mem_budget socket interval slow_ms jobs trace metrics =
    if mem_budget < 0 then
      die_bad_arg ~what:"memory budget" mem_budget ~expected:"a non-negative MiB count";
    (match interval with
    | Some n when n <= 0 ->
      die_bad_arg ~what:"metrics interval" n ~expected:"a positive second count"
    | _ -> ());
    if slow_ms < 0 then
      die_bad_arg ~what:"slow-request threshold" slow_ms
        ~expected:"a non-negative millisecond count";
    with_obs ~trace ~metrics @@ fun () ->
    (* the serving hot path is always instrumented: the `metrics` verb and
       the periodic snapshot must have data to report *)
    Plaid_obs.Metrics.set_enabled true;
    with_jobs jobs @@ fun pool ->
    let dir = Option.value cache_dir ~default:(default_cache_dir ()) in
    let cache =
      Plaid_serve.Cache.create ~mem_budget:(mem_budget * 1024 * 1024) ~dir ()
    in
    let svc = Plaid_serve.Service.create ~pool ~slow_ms:(float_of_int slow_ms) ~cache () in
    let stop = Atomic.make false in
    let ticker =
      Option.map
        (fun seconds ->
          (* periodic stderr snapshot; polls [stop] so shutdown never waits
             a full interval *)
          Domain.spawn (fun () ->
              let rec tick elapsed =
                if not (Atomic.get stop) then
                  if elapsed >= float_of_int seconds then begin
                    Format.eprintf "-- metrics (interval %ds) --@.%a@?" seconds
                      Plaid_obs.Metrics.pp_summary
                      (Plaid_obs.Metrics.snapshot ());
                    tick 0.0
                  end
                  else begin
                    Unix.sleepf 0.1;
                    tick (elapsed +. 0.1)
                  end
              in
              tick 0.0))
        interval
    in
    (* Graceful shutdown: note the request and unwind at the next safe
       point.  The store's write-then-rename discipline means a TERM that
       lands mid-write leaves no partial object — at worst a stale tmp
       file that `plaidc cache gc` sweeps. *)
    let on_signal _ =
      Atomic.set stop true;
      raise Exit
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    let respond oc resp = Plaid_serve.Service.write_response oc resp in
    let handle_line oc line =
      let queued_at = Plaid_obs.Trace.Clock.now_ns () in
      match Plaid_serve.Service.parse_request line with
      | Error msg ->
        respond oc (Plaid_serve.Service.Failure msg);
        `Continue
      | Ok Plaid_serve.Service.Quit ->
        respond oc (Plaid_serve.Service.handle ~queued_at svc Plaid_serve.Service.Quit);
        `Stop
      | Ok req ->
        respond oc (Plaid_serve.Service.handle ~queued_at svc req);
        `Continue
    in
    let read_batch ic n =
      let rec go acc i =
        if i = 0 then List.rev acc
        else
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> go (line :: acc) (i - 1)
      in
      go [] n
    in
    let serve_channels ic oc =
      let rec loop () =
        if Atomic.get stop then ()
        else
          match input_line ic with
          | exception End_of_file -> ()
          | line -> (
            let line = String.trim line in
            if line = "" then loop ()
            else
              match String.split_on_char ' ' line with
              | [ "batch"; n ] -> (
                match int_of_string_opt n with
                | None | Some 0 ->
                  respond oc (Plaid_serve.Service.Failure "batch needs a positive count");
                  loop ()
                | Some n when n < 0 ->
                  respond oc (Plaid_serve.Service.Failure "batch needs a positive count");
                  loop ()
                | Some n ->
                  (* parse every line first; a bad line answers err without
                     sinking the rest of the batch *)
                  let parsed =
                    List.map Plaid_serve.Service.parse_request (read_batch ic n)
                  in
                  let reqs =
                    List.filter_map (function Ok r -> Some r | Error _ -> None) parsed
                  in
                  let results = ref (Plaid_serve.Service.run_batch svc reqs) in
                  List.iter
                    (fun p ->
                      match p with
                      | Error msg -> respond oc (Plaid_serve.Service.Failure msg)
                      | Ok _ -> (
                        match !results with
                        | r :: rest ->
                          results := rest;
                          respond oc r
                        | [] -> ()))
                    parsed;
                  loop ())
              | _ -> (
                match handle_line oc line with
                | `Continue -> loop ()
                | `Stop -> ()))
      in
      loop ()
    in
    let finish () =
      Atomic.set stop true;
      Option.iter Domain.join ticker;
      let s = Plaid_serve.Cache.stats cache in
      Printf.eprintf
        "serve: %d requests (%d mem hits, %d disk hits, %d misses, %d coalesced)\n%!"
        Plaid_serve.Cache.(s.hit_mem + s.hit_disk + s.miss + s.coalesced)
        s.Plaid_serve.Cache.hit_mem s.Plaid_serve.Cache.hit_disk
        s.Plaid_serve.Cache.miss s.Plaid_serve.Cache.coalesced
    in
    (match socket with
    | None ->
      Printf.eprintf "plaidc serve: cache %s, %d workers, reading stdin\n%!" dir
        (Plaid_util.Pool.size pool);
      (try serve_channels stdin stdout with Exit -> ())
    | Some path ->
      (try Sys.remove path with Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Unix.bind fd (Unix.ADDR_UNIX path);
          Unix.listen fd 8;
          Printf.eprintf "plaidc serve: cache %s, %d workers, listening on %s\n%!" dir
            (Plaid_util.Pool.size pool) path;
          let rec accept_loop () =
            if not (Atomic.get stop) then begin
              match Unix.accept fd with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
              | cfd, _ ->
                let ic = Unix.in_channel_of_descr cfd in
                let oc = Unix.out_channel_of_descr cfd in
                (try serve_channels ic oc
                 with Exit -> Atomic.set stop true);
                (try flush oc with Sys_error _ -> ());
                (try Unix.close cfd with Unix.Unix_error _ -> ());
                accept_loop ()
            end
          in
          try accept_loop () with Exit -> ()));
    finish ();
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batch compile service: newline-delimited map/compile/case/stats/evict \
          requests against the content-addressed mapping cache")
    Term.(
      const run $ cache_dir_arg $ mem_budget_arg $ socket_arg $ interval_arg $ slow_ms_arg
      $ jobs_arg $ trace_arg $ metrics_arg)

let dse_cmd =
  let strategies = [ "exhaustive"; "random"; "halving" ] in
  let space_arg =
    Arg.(
      value
      & opt string "paper"
      & info [ "space" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Architecture space to explore: a preset (%s) or @FILE for a user-defined \
                axis-product space."
               (String.concat ", " Plaid_dse.Space.preset_names)))
  in
  let suite_arg =
    Arg.(
      value
      & opt string "paper"
      & info [ "suite" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Workload suite every candidate maps: %s."
               (String.concat ", " Plaid_dse.Eval.suite_names)))
  in
  let strategy_arg =
    Arg.(
      value
      & opt string "exhaustive"
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Search strategy: %s.  Random samples --budget candidates; halving starts \
                on a --budget-kernel prefix and prunes only candidates whose optimistic \
                bound is already dominated, so the frontier matches the exhaustive one."
               (String.concat ", " strategies)))
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Strategy budget: candidates to sample (random) or kernels in the first rung \
             (halving).  Rejected with --strategy exhaustive.")
  in
  let quick_arg =
    Arg.(
      value
      & flag
      & info [ "quick" ]
          ~doc:"Reduced-effort mapper parameters (CI-sized campaigns; IIs may be looser).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the JSON campaign report to $(docv) ('-' for stdout, replacing the \
                ASCII report).")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Persistent mapping cache: every (candidate, kernel) mapping is fingerprinted \
             and stored under $(docv), so campaigns are resumable and a warm re-run \
             performs zero mapper invocations.  Report bytes are identical with the cache \
             cold, warm, or absent.")
  in
  let run space suite strategy budget quick json cache seed jobs trace metrics =
    (match budget with
    | Some n when n < 1 -> die_bad_arg ~what:"budget" n ~expected:"a positive integer"
    | _ -> ());
    let strategy =
      match (strategy, budget) with
      | "exhaustive", Some _ ->
        Printf.eprintf
          "plaidc: --budget conflicts with --strategy exhaustive (use random or halving)\n";
        exit 2
      | "exhaustive", None -> Plaid_dse.Search.Exhaustive
      | "random", b -> Plaid_dse.Search.Random { samples = Option.value b ~default:8 }
      | "halving", b -> Plaid_dse.Search.Halving { rung = Option.value b ~default:2 }
      | other, _ -> die_unknown ~what:"strategy" other strategies
    in
    let space =
      if String.length space > 0 && space.[0] = '@' then
        match Plaid_dse.Space.of_file (String.sub space 1 (String.length space - 1)) with
        | Ok s -> s
        | Error e ->
          Printf.eprintf "plaidc: space file: %s\n" e;
          exit 2
      else
        match Plaid_dse.Space.find_preset space with
        | Some s -> s
        | None -> die_unknown ~what:"space" space Plaid_dse.Space.preset_names
    in
    let suite_name = suite in
    let suite =
      match Plaid_dse.Eval.find_suite suite_name with
      | Some s -> s
      | None -> die_unknown ~what:"suite" suite_name Plaid_dse.Eval.suite_names
    in
    with_obs ~trace ~metrics @@ fun () ->
    with_jobs jobs @@ fun pool ->
    let cache = Option.map (fun dir -> Plaid_serve.Cache.create ~dir ()) cache in
    let t = Plaid_dse.Eval.create ~seed ~quick ~pool ?cache () in
    let campaign = Plaid_dse.Eval.run t ~space ~suite_name ~suite ~strategy in
    (match json with
    | Some "-" -> print_endline (Plaid_dse.Report.to_json_string campaign)
    | Some path ->
      print_string (Plaid_dse.Report.to_string campaign);
      let oc = open_out path in
      output_string oc (Plaid_dse.Report.to_json_string campaign);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "wrote %s\n" path
    | None -> print_string (Plaid_dse.Report.to_string campaign));
    0
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Explore an architecture space: map a workload suite on every candidate fabric and \
          report the area x energy/op x II Pareto frontier")
    Term.(
      const run $ space_arg $ suite_arg $ strategy_arg $ budget_arg $ quick_arg $ json_arg
      $ cache_arg $ seed_arg $ jobs_arg $ trace_arg $ metrics_arg)

let cache_cmd =
  let actions = [ "stats"; "gc"; "clear"; "verify" ] in
  let action_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION" ~doc:(Printf.sprintf "One of %s." (String.concat ", " actions)))
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"N"
          ~doc:"gc only: evict oldest entries until the store fits $(docv) bytes.")
  in
  let run action cache_dir max_bytes =
    let dir = Option.value cache_dir ~default:(default_cache_dir ()) in
    let store = Plaid_serve.Store.open_dir dir in
    match action with
    | "stats" ->
      let s = Plaid_serve.Store.stats store in
      Printf.printf "cache %s: %d entries, %d bytes\n" dir s.Plaid_serve.Store.entries
        s.Plaid_serve.Store.bytes;
      0
    | "verify" ->
      let r = Plaid_serve.Store.verify store in
      Printf.printf "cache %s: %d live entries, %d corrupt, %d stale tmp files\n" dir
        r.Plaid_serve.Store.v_live
        (List.length r.Plaid_serve.Store.v_corrupt)
        r.Plaid_serve.Store.v_tmp;
      List.iter (Printf.eprintf "corrupt: %s\n") r.Plaid_serve.Store.v_corrupt;
      if r.Plaid_serve.Store.v_corrupt = [] then 0 else 1
    | "gc" ->
      let r = Plaid_serve.Store.gc ?max_bytes store in
      Printf.printf
        "cache %s: removed %d corrupt entries and %d tmp files, evicted %d, %d bytes live\n"
        dir r.Plaid_serve.Store.g_corrupt r.Plaid_serve.Store.g_tmp
        r.Plaid_serve.Store.g_evicted r.Plaid_serve.Store.g_bytes;
      0
    | "clear" ->
      let n = Plaid_serve.Store.clear store in
      Printf.printf "cache %s: removed %d files\n" dir n;
      0
    | other -> die_unknown ~what:"cache action" other actions
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Operate the on-disk mapping cache: stats, gc, clear, verify")
    Term.(const run $ action_arg $ cache_dir_arg $ max_bytes_arg)

let () =
  let info =
    (* The version doubles as the cache fingerprint salt: a release that
       changes mapping semantics changes this string, which invalidates
       every cached mapping at the key level. *)
    Cmd.info "plaidc" ~version:Plaid_serve.Fingerprint.version
      ~doc:"Plaid CGRA toolchain: motif-based hierarchical mapping, baselines, evaluation"
  in
  let code =
    Cmd.eval'
      (Cmd.group info
         [ list_cmd; map_cmd; run_cmd; motifs_cmd; compile_cmd; rtl_cmd; faults_cmd;
           fuzz_cmd; exp_cmd; dse_cmd; serve_cmd; cache_cmd ])
  in
  (* Cmdliner reports unknown subcommands and malformed flags with its own
     CLI-error code; fold that into the uniform "bad name -> exit 2"
     contract the rest of the tool follows. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
