open Plaid_workloads
module Fabrics = Plaid_core.Fabrics
module Energy = Plaid_model.Energy

type summary = (string * float) list

(* Table 2 of the paper: (total nodes, compute nodes, motif-covered compute
   nodes) as published, printed next to our measured characteristics. *)
let paper_table2 =
  [
    ("atax_u2", (15, 6, 6)); ("atax_u4", (27, 14, 11));
    ("bicg_u2", (23, 11, 10)); ("bicg_u4", (42, 23, 19));
    ("doitgen_u2", (18, 9, 9)); ("doitgen_u4", (34, 21, 10));
    ("gemm_u2", (21, 12, 12)); ("gemm_u4", (37, 24, 23));
    ("gemver_u2", (21, 11, 10)); ("gemver_u4", (41, 23, 19));
    ("gesummv_u2", (22, 9, 8)); ("gesummv_u4", (38, 19, 16));
    ("conv2x2", (20, 12, 10)); ("conv3x3", (37, 26, 17));
    ("dwconv", (7, 3, 2)); ("dwconv_u5", (31, 19, 13));
    ("fc", (17, 8, 7));
    ("cholesky_u2", (14, 5, 4)); ("cholesky_u4", (28, 11, 8));
    ("durbin_u2", (14, 7, 4)); ("durbin_u4", (28, 15, 8));
    ("fdtd_u2", (16, 7, 6)); ("fdtd_u4", (32, 15, 12));
    ("gramsc_u2", (15, 5, 4)); ("gramsc_u4", (25, 11, 8));
    ("jacobi", (16, 7, 5)); ("jacobi_u2", (30, 15, 12)); ("jacobi_u4", (54, 30, 27));
    ("seidel", (22, 11, 9)); ("seidel_u2", (44, 23, 21));
  ]

let table2 _ctx =
  Ascii.heading "Table 2: evaluated workloads (measured vs paper)";
  let rows = ref [] in
  let coverages = ref [] in
  List.iter
    (fun e ->
      let g = Suite.dfg e in
      let rng = Plaid_util.Rng.create 11 in
      let hier = Plaid_core.Motif_gen.generate ~rng g in
      let covered = Plaid_core.Motif_gen.covered_compute g hier in
      let compute = Plaid_ir.Dfg.n_compute g in
      if compute > 0 then
        coverages := (float_of_int covered /. float_of_int compute) :: !coverages;
      let pn, pc, pm =
        match List.assoc_opt (Suite.name e) paper_table2 with
        | Some (a, b, c) -> (string_of_int a, string_of_int b, string_of_int c)
        | None -> ("-", "-", "-")
      in
      rows :=
        [ Suite.name e; Suite.domain_to_string e.Suite.domain;
          string_of_int (Plaid_ir.Dfg.n_nodes g); string_of_int compute;
          string_of_int covered; pn; pc; pm ]
        :: !rows)
    Suite.table2;
  Ascii.table
    ~headers:[ "kernel"; "domain"; "nodes"; "compute"; "in-motifs"; "paper-n"; "paper-c"; "paper-m" ]
    (List.rev !rows);
  let mean_cov =
    let l = !coverages in
    List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))
  in
  Ascii.printf "\nmean motif coverage of compute nodes: %s\n" (Ascii.pct mean_cov);
  [ ("mean_motif_coverage", mean_cov) ]

(* Suite-wide power split and totals for one architecture's mappings. *)
let power_profile mappings =
  let cats = [ "compute"; "compute_config"; "comm"; "comm_config"; "regs" ] in
  let sums = Hashtbl.create 8 in
  let totals = ref [] in
  List.iter
    (fun m ->
      let r = Plaid_model.Power.fabric m in
      totals := Plaid_model.Report.total r :: !totals;
      List.iter
        (fun c ->
          Hashtbl.replace sums c
            (Plaid_model.Report.get r c
            +. (try Hashtbl.find sums c with Not_found -> 0.0)))
        cats)
    mappings;
  let grand = Hashtbl.fold (fun _ v acc -> acc +. v) sums 0.0 in
  ( List.map (fun c -> (c, (try Hashtbl.find sums c with Not_found -> 0.0) /. grand)) cats,
    Ascii.geomean !totals )

let fig2 ctx =
  Ascii.heading "Figure 2: power distribution, ST baseline vs Plaid";
  let st_maps = List.filter_map (fun e -> Ctx.map ctx Fabrics.St e) Suite.table2 in
  let plaid_maps = List.filter_map (fun e -> Ctx.map ctx Fabrics.Plaid e) Suite.table2 in
  let st_split, st_power = power_profile st_maps in
  let plaid_split, plaid_power = power_profile plaid_maps in
  Ascii.table
    ~headers:[ "category"; "ST share"; "Plaid share" ]
    (List.map2
       (fun (c, s) (_, p) -> [ c; Ascii.pct s; Ascii.pct p ])
       st_split plaid_split);
  let reduction = 1.0 -. (plaid_power /. st_power) in
  Ascii.printf "\nST fabric power (geomean) %.1f uW, Plaid %.1f uW -> reduction %s (paper: 43%%)\n"
    st_power plaid_power (Ascii.pct reduction);
  let cfg_share =
    List.assoc "compute_config" st_split +. List.assoc "comm_config" st_split
  in
  Ascii.printf "ST configuration share of power: %s (paper: 48%%)\n" (Ascii.pct cfg_share);
  [ ("plaid_power_reduction", reduction); ("st_config_share", cfg_share) ]

(* Per kernel with an ST mapping: its ST price, and Plaid's and spatial's
   prices against it ([vs st x]). *)
let vs_st_rows ctx price vs =
  let outer = Ctx.outer ctx in
  List.filter_map
    (fun e ->
      match Ctx.map ctx Fabrics.St e with
      | None -> None
      | Some st ->
        let base = price ~outer (Energy.Modulo st) in
        let plaid =
          Option.map (fun m -> vs base (price ~outer (Modulo m))) (Ctx.map ctx Fabrics.Plaid e)
        in
        let sp =
          match Ctx.spatial ctx e with
          | Ok r -> Some (vs base (price ~outer (Segments r.mappings)))
          | Error _ -> None
        in
        Some (e, base, plaid, sp))
    Suite.table2

let opt_str = function Some v -> Ascii.f2 v | None -> "-"

let by_domain rows f =
  List.map
    (fun d ->
      let xs =
        List.filter_map
          (fun (e, _, _, _ as row) -> if e.Suite.domain = d then f row else None)
          rows
      in
      (Suite.domain_to_string d, Ascii.geomean xs))
    [ Suite.Linear_algebra; Suite.Machine_learning; Suite.Image ]

let fig12 ctx =
  Ascii.heading "Figure 12: performance normalized to the spatio-temporal CGRA";
  (* speedup over ST: ST cycles / cycles *)
  let cycles ~outer run = float_of_int (Energy.cycles ~outer run) in
  let rows = vs_st_rows ctx cycles (fun st c -> st /. c) in
  Ascii.table
    ~headers:[ "kernel"; "ST cycles"; "Plaid"; "Spatial" ]
    (List.map
       (fun (e, stc, plaid, sp) ->
         [ Suite.name e; Printf.sprintf "%.0f" stc; opt_str plaid; opt_str sp ])
       rows);
  let plaids = List.filter_map (fun (_, _, p, _) -> p) rows in
  let spatials = List.filter_map (fun (_, _, _, s) -> s) rows in
  let gp = Ascii.geomean plaids and gs = Ascii.geomean spatials in
  Ascii.printf "\n";
  Ascii.table
    ~headers:[ "domain"; "Plaid vs ST"; "Spatial vs ST" ]
    (List.map2
       (fun (d, p) (_, s) -> [ d; Ascii.f2 p; Ascii.f2 s ])
       (by_domain rows (fun (_, _, p, _) -> p))
       (by_domain rows (fun (_, _, _, s) -> s)));
  Ascii.printf
    "\ngeomean: Plaid %.2fx ST (paper: ~1.0x); Spatial %.2fx ST; Plaid %.2fx Spatial (paper: 1.40x)\n"
    gp gs (gp /. gs);
  [ ("plaid_vs_st", gp); ("spatial_vs_st", gs); ("plaid_vs_spatial", gp /. gs) ]

let fig13 ctx =
  Ascii.heading "Figure 13: Plaid fabric area breakdown";
  let arch = (Ctx.fabric ctx Fabrics.Plaid).arch in
  let r = Plaid_model.Area.fabric arch in
  Ascii.printf "%s\n" (Format.asprintf "%a" (Plaid_model.Report.pp ~unit:"um2") r);
  let total = Plaid_model.Report.total r in
  let comm =
    Plaid_model.Report.share r "comm" +. Plaid_model.Report.share r "comm_config"
  in
  let st_total = Plaid_model.Area.fabric_total (Ctx.fabric ctx Fabrics.St).arch in
  Ascii.printf "total %.0f um2 (paper: 33366); comm share %s (paper: ~40%%)\n" total
    (Ascii.pct comm);
  Ascii.printf "area vs ST baseline: %.0f/%.0f = %s saved (paper: 46%%)\n" total st_total
    (Ascii.pct (1.0 -. (total /. st_total)));
  Ascii.printf "SPM (4x4KB): %.0f um2 (paper: 30000)\n" (Plaid_model.Area.spm ~kb:16);
  [ ("plaid_fabric_area", total); ("comm_share", comm);
    ("area_saving_vs_st", 1.0 -. (total /. st_total)) ]

let fig14 ctx =
  Ascii.heading "Figure 14: fabric energy normalized to the spatio-temporal CGRA";
  let rows = vs_st_rows ctx Energy.energy (fun st x -> x /. st) in
  Ascii.table
    ~headers:[ "kernel"; "ST pJ"; "Plaid"; "Spatial" ]
    (List.map
       (fun (e, ste, p, s) -> [ Suite.name e; Ascii.f1 ste; opt_str p; opt_str s ])
       rows);
  let gp = Ascii.geomean (List.filter_map (fun (_, _, p, _) -> p) rows) in
  let gs = Ascii.geomean (List.filter_map (fun (_, _, _, s) -> s) rows) in
  Ascii.printf
    "\ngeomean energy: Plaid %s of ST (paper: 58%%); Spatial %s of ST (paper: 72%%); Plaid/Spatial %s (paper: ~81%%)\n"
    (Ascii.pct gp) (Ascii.pct gs) (Ascii.pct (gp /. gs));
  [ ("plaid_energy_vs_st", gp); ("spatial_energy_vs_st", gs) ]

let fig15 ctx =
  Ascii.heading "Figure 15: performance per area normalized to the spatio-temporal CGRA";
  let rows = vs_st_rows ctx Energy.perf_per_area (fun st x -> x /. st) in
  Ascii.table
    ~headers:[ "kernel"; "Plaid"; "Spatial" ]
    (List.map (fun (e, _, p, s) -> [ Suite.name e; opt_str p; opt_str s ]) rows);
  let gp = Ascii.geomean (List.filter_map (fun (_, _, p, _) -> p) rows) in
  let gs = Ascii.geomean (List.filter_map (fun (_, _, _, s) -> s) rows) in
  Ascii.printf "\ngeomean perf/area: Plaid %.2fx ST, Spatial %.2fx ST\n" gp gs;
  [ ("plaid_ppa_vs_st", gp); ("spatial_ppa_vs_st", gs) ]

let fig16 ctx =
  let outer = Ctx.outer ctx in
  Ascii.heading "Figure 16: application-level comparison on three DNNs (normalized to Plaid)";
  let rows = ref [] in
  let eratios = ref [] and pratios = ref [] in
  List.iter
    (fun (app : Dnn.app) ->
      let layer_metrics (l : Dnn.layer) =
        let inv = float_of_int l.invocations in
        let plaid = Ctx.map ctx Fabrics.Plaid l.entry in
        let sp = Ctx.spatial ctx l.entry in
        match (plaid, sp) with
        | Some pm, Ok sr ->
          Some
            ( inv *. Energy.energy ~outer (Modulo pm),
              inv *. float_of_int (Energy.cycles ~outer (Modulo pm)),
              inv *. Energy.energy ~outer (Segments sr.mappings),
              inv *. float_of_int (Energy.cycles ~outer (Segments sr.mappings)) )
        | _ -> None
      in
      let ms = List.filter_map layer_metrics app.layers in
      let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 ms in
      let pe = sum (fun (a, _, _, _) -> a) and pc = sum (fun (_, b, _, _) -> b) in
      let se = sum (fun (_, _, c, _) -> c) and sc = sum (fun (_, _, _, d) -> d) in
      let plaid_area = Plaid_model.Area.fabric_total (Ctx.fabric ctx Fabrics.Plaid).arch in
      let sp_area = Plaid_model.Area.fabric_total (Plaid_spatial.Spatial.arch ()) in
      let e_ratio = se /. pe in
      (* perf/area of spatial relative to Plaid *)
      let ppa_ratio = pc /. sc *. (plaid_area /. sp_area) in
      eratios := e_ratio :: !eratios;
      pratios := ppa_ratio :: !pratios;
      rows :=
        [ app.app_name; string_of_int (List.length app.layers); Ascii.f2 e_ratio;
          Ascii.f2 ppa_ratio ]
        :: !rows)
    Dnn.apps;
  Ascii.table
    ~headers:[ "app"; "layers"; "spatial energy (x Plaid)"; "spatial perf/area (x Plaid)" ]
    (List.rev !rows);
  let ge = Ascii.geomean !eratios and gp = Ascii.geomean !pratios in
  Ascii.printf "\ngeomean: spatial consumes %.2fx energy (paper: 1.42x), %s perf/area (paper: 36%%)\n"
    ge (Ascii.pct gp);
  [ ("spatial_energy_x_plaid", ge); ("spatial_ppa_of_plaid", gp) ]

let fig17 ctx =
  let outer = Ctx.outer ctx in
  Ascii.heading "Figure 17: 3x3 Plaid vs 2x2 Plaid";
  let rows = ref [] and speedups = ref [] in
  List.iter
    (fun e ->
      match Ctx.map ctx Fabrics.Plaid e with
      | None -> ()
      | Some m2 ->
        (* the paper excludes kernels whose II is recurrence-bound: a larger
           array cannot help them *)
        let recur = Plaid_ir.Analysis.rec_mii m2.Plaid_mapping.Mapping.dfg in
        if m2.Plaid_mapping.Mapping.ii > recur then begin
          match Ctx.map ctx Fabrics.Plaid3 e with
          | None -> ()
          | Some m3 ->
            let s =
              float_of_int (Energy.cycles ~outer (Modulo m2))
              /. float_of_int (Energy.cycles ~outer (Modulo m3))
            in
            speedups := s :: !speedups;
            rows :=
              [ Suite.name e; string_of_int m2.Plaid_mapping.Mapping.ii;
                string_of_int m3.Plaid_mapping.Mapping.ii; Ascii.f2 s ]
              :: !rows
        end)
    Suite.table2;
  Ascii.table ~headers:[ "kernel"; "II 2x2"; "II 3x3"; "speedup" ] (List.rev !rows);
  let g = Ascii.geomean !speedups in
  Ascii.printf "\ngeomean 3x3 speedup: %.2fx (paper: 1.71x)\n" g;
  [ ("plaid3_speedup", g) ]

let fig18 ctx =
  let outer = Ctx.outer ctx in
  Ascii.heading "Figure 18: Plaid mapper vs generic mappers on the Plaid fabric";
  let rows = ref [] and vs_pf = ref [] and vs_sa = ref [] in
  List.iter
    (fun e ->
      match Ctx.map ctx Fabrics.Plaid e with
      | None -> ()
      | Some hm ->
        let hc = Energy.cycles ~outer (Modulo hm) in
        let ratio = function
          | Some (m : Plaid_mapping.Mapping.t) ->
            Some (float_of_int (Energy.cycles ~outer (Modulo m)) /. float_of_int hc)
          | None -> None
        in
        let pf = ratio (Ctx.map_plaid_generic ctx `Pf e) in
        let sa = ratio (Ctx.map_plaid_generic ctx `Sa e) in
        (match pf with Some r -> vs_pf := r :: !vs_pf | None -> ());
        (match sa with Some r -> vs_sa := r :: !vs_sa | None -> ());
        rows :=
          [ Suite.name e; string_of_int hm.Plaid_mapping.Mapping.ii; opt_str pf; opt_str sa ]
          :: !rows)
    Suite.table2;
  Ascii.table
    ~headers:[ "kernel"; "Plaid-mapper II"; "PathFinder slowdown"; "SA slowdown" ]
    (List.rev !rows);
  let gpf = Ascii.geomean !vs_pf and gsa = Ascii.geomean !vs_sa in
  Ascii.printf "\nPlaid mapper speedup: %.2fx over PathFinder (paper: 1.25x), %.2fx over SA (paper: 1.28x)\n"
    gpf gsa;
  [ ("vs_pathfinder", gpf); ("vs_sa", gsa) ]

let fig19 ctx =
  let outer = Ctx.outer ctx in
  Ascii.heading "Figure 19: domain specialization on the ML kernels (normalized to Plaid)";
  let rows = ref [] in
  let acc = Hashtbl.create 8 in
  let push k v = Hashtbl.replace acc k (v :: (try Hashtbl.find acc k with Not_found -> [])) in
  List.iter
    (fun e ->
      let plaid = Ctx.map ctx Fabrics.Plaid e in
      match plaid with
      | None -> ()
      | Some pm ->
        let pe = Energy.energy ~outer (Modulo pm)
        and pp = Energy.perf_per_area ~outer (Modulo pm) in
        let rel (m : Plaid_mapping.Mapping.t option) =
          match m with
          | None -> (None, None)
          | Some m ->
            ( Some (Energy.energy ~outer (Modulo m) /. pe),
              Some (Energy.perf_per_area ~outer (Modulo m) /. pp) )
        in
        let st_e, st_p = rel (Ctx.map ctx Fabrics.St e) in
        let stml_e, stml_p = rel (Ctx.map ctx Fabrics.St_ml e) in
        let pml_e, pml_p = rel (Ctx.map ctx Fabrics.Plaid_ml e) in
        List.iter
          (fun (k, v) -> match v with Some v -> push k v | None -> ())
          [ ("st_e", st_e); ("st_p", st_p); ("stml_e", stml_e); ("stml_p", stml_p);
            ("pml_e", pml_e); ("pml_p", pml_p) ];
        rows :=
          [ Suite.name e; opt_str st_e; opt_str stml_e; opt_str pml_e; opt_str st_p;
            opt_str stml_p; opt_str pml_p ]
          :: !rows)
    Suite.ml_entries;
  Ascii.table
    ~headers:
      [ "kernel"; "ST energy"; "ST-ML energy"; "Plaid-ML energy"; "ST ppa"; "ST-ML ppa";
        "Plaid-ML ppa" ]
    (List.rev !rows);
  let g k = Ascii.geomean (try Hashtbl.find acc k with Not_found -> []) in
  Ascii.printf
    "\ngeomeans vs Plaid: ST-ML energy %.2fx (paper: Plaid saves 18%% vs ST-ML), Plaid-ML energy %.2fx;\n"
    (g "stml_e") (g "pml_e");
  Ascii.printf "ST-ML perf/area %.2fx, Plaid-ML perf/area %.2fx (paper: Plaid-ML 1.46x ST-ML)\n"
    (g "stml_p") (g "pml_p");
  [ ("stml_energy_x_plaid", g "stml_e"); ("plaidml_energy_x_plaid", g "pml_e");
    ("stml_ppa_x_plaid", g "stml_p"); ("plaidml_ppa_x_plaid", g "pml_p") ]

(* --- utilization -------------------------------------------------------- *)

let utilization ctx =
  Ascii.heading "Routing-resource utilization (Section 3.1's overprovisioning argument)";
  let acc_st = ref [] and acc_plaid_local = ref [] and acc_plaid_global = ref [] in
  let rows = ref [] in
  List.iter
    (fun e ->
      (* the utilization of one resource class: the classes averaged below
         are what constitutes "the router" on each fabric *)
      let comm_util m =
        let u = Plaid_mapping.Mapping.utilization m in
        fun cls -> List.assoc_opt cls u
      in
      match (Ctx.map ctx Fabrics.St e, Ctx.map ctx Fabrics.Plaid e) with
      | Some st, Some plaid ->
        let pick_st = comm_util st and pick_pl = comm_util plaid in
        let avg vals =
          let vals = List.filter_map (fun x -> x) vals in
          List.fold_left ( +. ) 0.0 vals /. float_of_int (max 1 (List.length vals))
        in
        let st_comm = avg [ pick_st "router_port"; pick_st "out_reg" ] in
        let plaid_local = avg [ pick_pl "local_port" ] in
        let plaid_global = avg [ pick_pl "global_port"; pick_pl "global_out_reg" ] in
        acc_st := st_comm :: !acc_st;
        acc_plaid_local := plaid_local :: !acc_plaid_local;
        acc_plaid_global := plaid_global :: !acc_plaid_global;
        rows :=
          [ Suite.name e; Ascii.pct st_comm; Ascii.pct plaid_local; Ascii.pct plaid_global ]
          :: !rows
      | _ -> ())
    Suite.table2;
  Ascii.table
    ~headers:[ "kernel"; "ST crossbar util"; "Plaid local-router util"; "Plaid global util" ]
    (List.rev !rows);
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let st_m = mean !acc_st and lo_m = mean !acc_plaid_local and gl_m = mean !acc_plaid_global in
  Ascii.printf
    "\nmean utilization: ST crossbar %s; Plaid local router %s; Plaid global network %s\n"
    (Ascii.pct st_m) (Ascii.pct lo_m) (Ascii.pct gl_m);
  [ ("st_comm_util", st_m); ("plaid_local_util", lo_m); ("plaid_global_util", gl_m) ]

(* --- ablations -------------------------------------------------------- *)

let ablations ctx =
  let outer = Ctx.outer ctx in
  Ascii.heading "Ablations: motif generation, schedule templates, bypass paths";
  Ascii.printf "%s\n"
    "(run with the reduced-budget mapper so architecture/algorithm differences
show up as II loss rather than being annealed away)";
  let subset =
    List.filter
      (fun e ->
        List.mem (Suite.name e)
          [ "gemm_u2"; "gemver_u2"; "conv2x2"; "conv3x3"; "fc"; "jacobi_u2"; "bicg_u2" ])
      Suite.table2
  in
  let plaid = Option.get (Ctx.fabric ctx Fabrics.Plaid).pcu in
  let no_bypass = Plaid_core.Pcu.build ~bypass:false ~rows:2 ~cols:2 ~name:"plaid_nobypass" () in
  let quick = Plaid_core.Hier_mapper.quick in
  let strict_params = { quick with templates = Plaid_core.Templates.strict } in
  let rows = ref [] in
  let r_greedy = ref [] and r_strict = ref [] and r_nobyp = ref [] and cov_drop = ref [] in
  List.iter
    (fun e ->
      let g = Suite.dfg e in
      let base =
        (Plaid_core.Hier_mapper.map ~params:quick ~plaid ~seed:2025 g)
          .Plaid_core.Hier_mapper.mapping
      in
      match base with
      | None -> ()
      | Some bm ->
        let bc = Energy.cycles ~outer (Modulo bm) in
        let greedy_hier = Plaid_core.Motif_gen.greedy g in
        let full_hier =
          Plaid_core.Motif_gen.generate ~rng:(Plaid_util.Rng.create 11) g
        in
        let greedy_cov = Plaid_core.Motif_gen.covered_compute g greedy_hier in
        let full_cov = Plaid_core.Motif_gen.covered_compute g full_hier in
        if full_cov > 0 then
          cov_drop := (float_of_int greedy_cov /. float_of_int full_cov) :: !cov_drop;
        let run ?(params = quick) plaid hier =
          (Plaid_core.Hier_mapper.map_hier ~params ~plaid ~hier ~seed:2025 g)
            .Plaid_core.Hier_mapper.mapping
        in
        let bw = Plaid_mapping.Mapping.wire_occupancy bm in
        let ratio m =
          Option.map
            (fun (m : Plaid_mapping.Mapping.t) ->
              let cycles = float_of_int (Energy.cycles ~outer (Modulo m)) /. float_of_int bc in
              let wires =
                float_of_int (Plaid_mapping.Mapping.wire_occupancy m) /. float_of_int (max 1 bw)
              in
              (cycles, wires))
            m
        in
        let greedy_r = ratio (run plaid greedy_hier) in
        let strict_r = ratio (run ~params:strict_params plaid full_hier) in
        let nobyp_r = ratio (run no_bypass full_hier) in
        let cyc = Option.map fst and wire = Option.map snd in
        (match cyc greedy_r with Some r -> r_greedy := r :: !r_greedy | None -> ());
        (match cyc strict_r with Some r -> r_strict := r :: !r_strict | None -> ());
        (match cyc nobyp_r with Some r -> r_nobyp := r :: !r_nobyp | None -> ());
        let show r = Printf.sprintf "%s/%s" (opt_str (cyc r)) (opt_str (wire r)) in
        rows :=
          [ Suite.name e; Printf.sprintf "%d/%d" greedy_cov full_cov; show greedy_r;
            show strict_r; show nobyp_r ]
          :: !rows)
    subset;
  Ascii.table
    ~headers:
      [ "kernel"; "greedy/full coverage"; "greedy-only cyc/wire"; "strict-templates cyc/wire";
        "no-bypass cyc/wire" ]
    (List.rev !rows);
  let gg = Ascii.geomean !r_greedy and gs = Ascii.geomean !r_strict and gb = Ascii.geomean !r_nobyp in
  Ascii.printf
    "\ngeomean cycle slowdowns: greedy-only motifs %.2fx, strict templates %.2fx, no bypass %.2fx\n" gg gs gb;
  [ ("greedy_only_slowdown", gg); ("strict_templates_slowdown", gs);
    ("no_bypass_slowdown", gb) ]

(* --- synthetic design-space exploration -------------------------------- *)

let dse ctx =
  Ascii.heading "Design-space exploration on synthetic DFG families (beyond the paper)";
  ignore ctx;
  let spec = { Plaid_ir.Generate.seed = 11; size = 12; trip = 32 } in
  let fabrics =
    [ ("plaid 1x2", Plaid_core.Pcu.build ~rows:1 ~cols:2 ~name:"p1x2" ());
      ("plaid 2x2", Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"p2x2" ());
      ("plaid 2x3", Plaid_core.Pcu.build ~rows:2 ~cols:3 ~name:"p2x3" ());
      ("plaid 3x3", Plaid_core.Pcu.build ~rows:3 ~cols:3 ~name:"p3x3" ()) ]
  in
  let rows = ref [] in
  let improvements = ref [] in
  List.iter
    (fun (fam, g) ->
      let iis =
        List.map
          (fun (_, pcu) ->
            match
              (Plaid_core.Hier_mapper.map ~params:Plaid_core.Hier_mapper.quick ~plaid:pcu
                 ~seed:7 g)
                .Plaid_core.Hier_mapper.mapping
            with
            | Some m -> Some m.Plaid_mapping.Mapping.ii
            | None -> None)
          fabrics
      in
      (match (List.hd iis, List.nth iis (List.length iis - 1)) with
      | Some small, Some big when big > 0 ->
        improvements := (float_of_int small /. float_of_int big) :: !improvements
      | _ -> ());
      rows :=
        (fam
        :: string_of_int (Plaid_ir.Dfg.n_nodes g)
        :: List.map (function Some ii -> string_of_int ii | None -> "-") iis)
        :: !rows)
    (Plaid_ir.Generate.all_families spec);
  Ascii.table
    ~headers:("family" :: "nodes" :: List.map fst fabrics)
    (List.rev !rows);
  let g = Ascii.geomean !improvements in
  Ascii.printf "\ngeomean II improvement, smallest to largest fabric: %.2fx\n" g;
  [ ("dse_scaling", g) ]

(* --- fault resilience (beyond the paper) ------------------------------- *)

(* The paper trades the per-PE crossbar for motif-sized local routers and
   shows the performance cost is nil — but trimmed routing redundancy is
   exactly what a fabric leans on when silicon breaks.  Inject fault sets of
   growing size into plaid_2x2 and st_4x4, repair, and compare yield / II
   degradation / repair effort. *)
let resilience ctx =
  Ascii.heading "Fault resilience: yield and II degradation under injected faults";
  let e = Suite.find "gemm_u2" in
  let dfg = Suite.dfg e in
  let kernel = Plaid_ir.Unroll.apply e.Suite.base e.Suite.unroll in
  let spm = Plaid_sim.Spm.of_kernel kernel ~params:(Suite.params e) ~seed:77 in
  let fabrics =
    [ ("plaid_2x2", (Ctx.fabric ctx Fabrics.Plaid).arch);
      ("st_4x4", (Ctx.fabric ctx Fabrics.St).arch) ]
  in
  let fault_counts = [ 1; 2; 4 ] in
  let trials = 8 in
  let rows = ref [] in
  let summary = ref [] in
  List.iter
    (fun (name, arch) ->
      List.iter
        (fun nf ->
          let c =
            Plaid_fault.Campaign.run ?pool:(Ctx.pool ctx) ~arch ~dfg ~spm ~seed:2025
              ~faults:nf ~trials ~repair:true ()
          in
          let y = Plaid_fault.Campaign.yield c in
          let d = Plaid_fault.Campaign.ii_degradation c in
          rows :=
            [ name; string_of_int nf;
              Printf.sprintf "%.0f%%" (100.0 *. y);
              Printf.sprintf "%.3fx" d;
              string_of_int (Plaid_fault.Campaign.incremental_repairs c);
              string_of_int (Plaid_fault.Campaign.full_remaps c);
              string_of_int (Plaid_fault.Campaign.repair_effort c) ]
            :: !rows;
          if nf = List.nth fault_counts (List.length fault_counts - 1) then
            summary :=
              (name ^ "_yield", y) :: (name ^ "_ii_degradation", d) :: !summary)
        fault_counts)
    fabrics;
  Ascii.table
    ~headers:
      [ "arch"; "faults"; "yield"; "II degradation"; "incremental"; "full remaps";
        "repair effort" ]
    (List.rev !rows);
  Ascii.printf
    "\n(gemm_u2, %d trials per point, repair on; effort = displaced + rerouted + fallback II attempts)\n"
    trials;
  List.rev !summary

(* --- verification ------------------------------------------------------ *)

let verify_entry ctx e =
  let kernel = Plaid_ir.Unroll.apply e.Suite.base e.Suite.unroll in
  let params = Suite.params e in
  let spm () = Plaid_sim.Spm.of_kernel kernel ~params ~seed:77 in
  let check name m =
    match m with
    | None -> [ (name, true) ] (* nothing to verify: mapper declined *)
    | Some m -> (
      let sim_ok =
        match Plaid_sim.Cycle_sim.verify m (spm ()) with
        | Ok _ -> true
        | Error msg ->
          Ascii.printf "FAIL %s %s: %s\n" (Suite.name e) name msg;
          false
      in
      (* the configuration bitstream must encode and stay within budget *)
      let cfg_ok =
        match Plaid_mapping.Bitstream.generate m with
        | Ok bs ->
          Plaid_mapping.Bitstream.total_bits bs <= Plaid_mapping.Bitstream.budget_bits bs
        | Error msg ->
          Ascii.printf "FAIL %s %s bitstream: %s\n" (Suite.name e) name msg;
          false
      in
      [ (name, sim_ok && cfg_ok) ])
  in
  let spatial_check =
    match Ctx.spatial ctx e with
    | Error _ -> [ ("spatial", true) ]
    | Ok r -> (
      let spm = spm () in
      let golden = Plaid_sim.Spm.copy spm in
      List.iter
        (fun (b : Plaid_spatial.Partition.buffer) ->
          Plaid_sim.Spm.ensure spm b.buf_array b.buf_len;
          for i = 0 to b.buf_len - 1 do
            Plaid_sim.Spm.write spm b.buf_array i b.buf_init
          done)
        r.part.Plaid_spatial.Partition.buffers;
      let run_ok =
        List.for_all
          (fun m ->
            match Plaid_sim.Cycle_sim.run m spm with
            | Ok _ -> true
            | Error msg ->
              Ascii.printf "FAIL %s spatial: %s\n" (Suite.name e) msg;
              false)
          r.mappings
      in
      Plaid_sim.Reference.run (Suite.dfg e) golden;
      let strip d =
        List.filter (fun (n, _) -> not (String.length n > 0 && n.[0] = '%')) d
      in
      let same = strip (Plaid_sim.Spm.dump spm) = strip (Plaid_sim.Spm.dump golden) in
      if not same then Ascii.printf "FAIL %s spatial: memory mismatch\n" (Suite.name e);
      [ ("spatial", run_ok && same) ])
  in
  check "st" (Ctx.map ctx Fabrics.St e)
  @ check "plaid" (Ctx.map ctx Fabrics.Plaid e)
  @ spatial_check

let verify_all ctx =
  Ascii.heading "Verification: cycle-level simulation vs golden reference";
  let results = List.concat_map (verify_entry ctx) Suite.table2 in
  let total = List.length results in
  let passed = List.length (List.filter snd results) in
  Ascii.printf "verified %d/%d mapped executions bit-exact (with in-budget bitstreams)\n"
    passed total;
  [ ("verified", float_of_int passed); ("total", float_of_int total) ]

(* --- the experiment engine --------------------------------------------- *)

let runners =
  [
    ("table2", table2); ("fig2", fig2); ("fig12", fig12); ("fig13", fig13);
    ("fig14", fig14); ("fig15", fig15); ("fig16", fig16); ("fig17", fig17);
    ("fig18", fig18); ("fig19", fig19); ("utilization", utilization);
    ("ablations", ablations); ("dse", dse); ("resilience", resilience);
    ("verify", verify_all);
  ]

(* Bounded: `plaidc exp` under --metrics (or a scrape-driven rerun loop)
   must not grow a series per invocation. *)
let h_experiment_ms = Plaid_obs.Metrics.histogram_bucketed "exp_experiment_ms"

let run ?pool ctx selection =
  let tasks =
    List.map
      (fun (name, f) () ->
        ( name,
          Plaid_obs.Trace.with_span ~cat:"exp" ("exp." ^ name) (fun () ->
              let t0 = Plaid_obs.Trace.Clock.now_ns () in
              Fun.protect
                ~finally:(fun () ->
                  Plaid_obs.Metrics.observe h_experiment_ms
                    (Plaid_obs.Trace.Clock.seconds_since t0 *. 1000.0))
                (fun () -> Ascii.with_capture (fun () -> f ctx))) ))
      selection
  in
  let results =
    match pool with
    | Some p when Plaid_util.Pool.size p > 1 -> Plaid_util.Pool.run p tasks
    | _ -> List.map (fun f -> f ()) tasks
  in
  (* every experiment buffered its own output; replay in selection order so
     the report reads identically for any worker count *)
  List.map
    (fun (name, (summary, output)) ->
      Ascii.printf "%s" output;
      (name, summary))
    results

let all ?pool ctx = run ?pool ctx runners
