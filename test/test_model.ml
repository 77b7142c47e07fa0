(* Tests for plaid_model and plaid_workloads: area/power invariants,
   calibration anchors (paper's published breakdowns), energy accounting,
   and suite integrity. *)

open Plaid_workloads

let check = Alcotest.check

let st4 = lazy (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st4")

let plaid2 = lazy ((Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"p2" ()).Plaid_core.Pcu.arch)

(* ------------------------------------------------------------------ area *)

let test_area_positive_categories () =
  List.iter
    (fun arch ->
      let r = Plaid_model.Area.fabric arch in
      List.iter
        (fun c ->
          check Alcotest.bool c true (Plaid_model.Report.get r c > 0.0))
        [ "compute"; "compute_config"; "comm"; "comm_config"; "regs" ])
    [ Lazy.force st4; Lazy.force plaid2 ]

let test_area_plaid_near_paper () =
  let total = Plaid_model.Area.fabric_total (Lazy.force plaid2) in
  (* paper: 33,366 um^2; allow 15% modelling slack *)
  if total < 28000.0 || total > 40000.0 then
    Alcotest.failf "plaid fabric area %.0f out of calibration band" total

let test_area_plaid_saves_vs_st () =
  let p = Plaid_model.Area.fabric_total (Lazy.force plaid2) in
  let s = Plaid_model.Area.fabric_total (Lazy.force st4) in
  let saving = 1.0 -. (p /. s) in
  (* paper: 46% *)
  if saving < 0.30 || saving > 0.60 then
    Alcotest.failf "area saving %.2f out of expected band" saving

let test_area_scales_with_fabric () =
  let p2 = Plaid_model.Area.fabric_total (Lazy.force plaid2) in
  let p3 =
    Plaid_model.Area.fabric_total (Plaid_core.Pcu.build ~rows:3 ~cols:3 ~name:"p3" ()).Plaid_core.Pcu.arch
  in
  check Alcotest.bool "3x3 bigger" true (p3 > 1.8 *. p2)

let test_spm_area () =
  check (Alcotest.float 1.0) "16KB (paper: 30000)" 30000.0 (Plaid_model.Area.spm ~kb:16)

(* ----------------------------------------------------------------- power *)

let mapped_pair =
  lazy
    (let e = Suite.find "gemm_u2" in
     let dfg = Suite.dfg e in
     let st =
       (Plaid_mapping.Driver.map
          ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
          ~arch:(Lazy.force st4) ~dfg ~seed:3 ())
         .Plaid_mapping.Driver.mapping
     in
     let plaid =
       (Plaid_core.Hier_mapper.map ~params:Plaid_core.Hier_mapper.quick
          ~plaid:(Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"p2" ())
          ~seed:3 dfg)
         .Plaid_core.Hier_mapper.mapping
     in
     match (st, plaid) with
     | Some a, Some b -> (a, b)
     | _ -> Alcotest.fail "calibration mappings failed")

let test_power_positive () =
  let st, plaid = Lazy.force mapped_pair in
  check Alcotest.bool "st power" true (Plaid_model.Power.fabric_total st > 0.0);
  check Alcotest.bool "plaid power" true (Plaid_model.Power.fabric_total plaid > 0.0)

let test_power_config_dominates_st () =
  (* Figure 2a: configuration is the largest power block of the ST baseline *)
  let st, _ = Lazy.force mapped_pair in
  let r = Plaid_model.Power.fabric st in
  let cfg =
    Plaid_model.Report.share r "compute_config" +. Plaid_model.Report.share r "comm_config"
  in
  if cfg < 0.35 || cfg > 0.70 then Alcotest.failf "ST config share %.2f out of band" cfg

let test_power_plaid_lower_comm () =
  let st, plaid = Lazy.force mapped_pair in
  let sc = Plaid_model.Report.get (Plaid_model.Power.fabric st) "comm_config" in
  let pc = Plaid_model.Report.get (Plaid_model.Power.fabric plaid) "comm_config" in
  check Alcotest.bool "plaid comm config below ST" true (pc < sc)

let test_spatial_clock_gating () =
  (* identical mesh, clock-gated config: dynamic config power gone *)
  let spatial = Plaid_spatial.Spatial.arch () in
  let dummy_mapping arch =
    (* leakage-only question: use idle_fabric *)
    Plaid_model.Power.idle_fabric arch
  in
  ignore dummy_mapping;
  check Alcotest.bool "clock gated flag" true spatial.Plaid_arch.Arch.config.clock_gated

let test_energy_scales_with_cycles () =
  let st, _ = Lazy.force mapped_pair in
  let e1 = Plaid_model.Tech.energy_pj ~power_uw:100.0 ~cycles:100 in
  let e2 = Plaid_model.Tech.energy_pj ~power_uw:100.0 ~cycles:200 in
  check (Alcotest.float 1e-6) "linear" (2.0 *. e1) e2;
  check Alcotest.bool "fabric energy positive" true (Plaid_model.Energy.fabric_energy st > 0.0)

(* ----------------------------------------------------------- pinned bits *)

(* Area and power reports pinned bit for bit: keys, their order and every
   float's IEEE bits.  Float addition is not associative, so these also pin
   the order in which each category is summed. *)

let bits r =
  List.map (fun (k, v) -> Printf.sprintf "%s %Lx" k (Int64.bits_of_float v)) r

let spatial_fabric = lazy (Plaid_spatial.Spatial.arch ())

(* The st_4x4 mesh with its configuration clock-gated: no readout power. *)
let gated_st4 =
  lazy
    (let a = Lazy.force st4 in
     Plaid_arch.Arch.set_config a { a.Plaid_arch.Arch.config with clock_gated = true })

let area_pins =
  [ [ "compute 40ca900000000000"; "compute_config 40a8000000000000"; "comm 40e3980000000000";
      "comm_config 40cb800000000000"; "regs 40b7c00000000000" ];
    [ "compute 40ca900000000000"; "compute_config 40a8000000000000"; "comm 40c93a0000000000";
      "comm_config 40bd000000000000"; "regs 4097c00000000000" ];
    [ "compute 40cdb00000000000"; "compute_config 4068000000000000"; "comm 40e3980000000000";
      "comm_config 408b800000000000"; "regs 40b7c00000000000" ];
    [ "compute 40ca900000000000"; "compute_config 40a8000000000000"; "comm 40e3980000000000";
      "comm_config 40cb800000000000"; "regs 40b7c00000000000" ] ]

let test_area_pinned () =
  check
    Alcotest.(list (list string))
    "area reports" area_pins
    (List.map
       (fun a -> bits (Plaid_model.Area.fabric (Lazy.force a)))
       [ st4; plaid2; spatial_fabric; gated_st4 ])

(* One route through 1500 distinct (resource, slot) cells, enough that a
   hash table over them would have resized twice. *)
let wide_routes (m : Plaid_mapping.Mapping.t) =
  let n = Plaid_arch.Arch.n_resources m.arch in
  let e = (List.hd m.routes).re_edge in
  { m with
    ii = 8;
    routes = [ { re_edge = e; re_path = List.init 1500 (fun i -> (i mod n, i / n)) } ] }

let power_pins =
  [ [ "compute 404786d3a06d3a05"; "compute_config 40330be0ded288ce"; "comm 4051d25d1da0b317";
      "comm_config 4055d2f1a9fbe76d"; "regs 401d2f1a9fbe76c8" ];
    [ "compute 4047428f5c28f5c1"; "compute_config 40330be0ded288ce"; "comm 40386631f8a09037";
      "comm_config 404703afb7e90ff9"; "regs 40134bc6a7ef9db2" ];
    [ "compute 404711eb851eb852"; "compute_config 3fcd7dbf487fcb92"; "comm 405329d495182a9b";
      "comm_config 3ff0e5604189374b"; "regs 401d2f1a9fbe76c8" ];
    [ "compute 404786d3a06d3a05"; "compute_config 400d7dbf487fcb92"; "comm 4051d25d1da0b317";
      "comm_config 4030e5604189374b"; "regs 401d2f1a9fbe76c8" ];
    [ "compute 40516a147ae147ae"; "compute_config 40330be0ded288ce"; "comm 406602ea4a8c156b";
      "comm_config 4055d2f1a9fbe76d"; "regs 403d4bc6a7ef9db2" ] ]

let test_power_pinned () =
  let st, plaid = Lazy.force mapped_pair in
  let spatial =
    match Plaid_spatial.Spatial.run ~seed:3 (Suite.dfg (Suite.find "fc")) with
    | Ok r -> List.hd r.Plaid_spatial.Spatial.mappings
    | Error e -> Alcotest.fail e
  in
  let gated = { st with Plaid_mapping.Mapping.arch = Lazy.force gated_st4 } in
  check
    Alcotest.(list (list string))
    "power reports" power_pins
    (List.map
       (fun m -> bits (Plaid_model.Power.fabric m))
       [ st; plaid; spatial; gated; wide_routes st ])

(* Clock gating removes the readout term and nothing else: each config
   category is exactly its area's leakage. *)
let test_gated_config_is_leakage () =
  let st, _ = Lazy.force mapped_pair in
  let gated = Lazy.force gated_st4 in
  let p = Plaid_model.Power.fabric { st with Plaid_mapping.Mapping.arch = gated } in
  let a = Plaid_model.Area.fabric gated in
  List.iter
    (fun k ->
      check Alcotest.int64 k
        (Int64.bits_of_float (Plaid_model.Report.get a k *. Plaid_model.Tech.leakage_per_area))
        (Int64.bits_of_float (Plaid_model.Report.get p k)))
    [ "compute_config"; "comm_config" ]

(* ---------------------------------------------------------- JSON export *)

(* The machine-readable export must agree with the ASCII model to the last
   bit: parse the serialized JSON back and compare every category against a
   direct model call, then pin the known fabric's totals. *)
let json_num path j =
  let rec go j = function
    | [] -> Plaid_obs.Json.num j
    | k :: rest -> Option.bind (Plaid_obs.Json.member k j) (fun v -> go v rest)
  in
  match go j path with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON field %s" (String.concat "." path)

let test_export_area_matches_model () =
  let arch = Lazy.force plaid2 in
  let s = Plaid_obs.Json.to_string (Plaid_model.Export.area_json arch ~spm_kb:16) in
  match Plaid_obs.Json.of_string s with
  | Error e -> Alcotest.fail ("area JSON does not parse: " ^ e)
  | Ok j ->
    let r = Plaid_model.Area.fabric arch in
    List.iter
      (fun c ->
        check (Alcotest.float 1e-9) c (Plaid_model.Report.get r c)
          (json_num [ "fabric"; "categories"; c ] j))
      [ "compute"; "compute_config"; "comm"; "comm_config"; "regs" ];
    check (Alcotest.float 1e-9) "fabric total" (Plaid_model.Report.total r)
      (json_num [ "fabric"; "total" ] j);
    check (Alcotest.float 1e-9) "spm" (Plaid_model.Area.spm ~kb:16)
      (json_num [ "spm_um2" ] j);
    check (Alcotest.float 1e-9) "system" (Plaid_model.Area.system arch ~spm_kb:16)
      (json_num [ "system_um2" ] j)

let test_export_pins_plaid_fabric () =
  (* the calibration anchor, now machine-readable: the 2x2 Plaid fabric's
     exported area sits in the paper's 33,366 um^2 band and the category
     totals add up *)
  let j = Plaid_model.Export.area_json (Lazy.force plaid2) ~spm_kb:16 in
  let total = json_num [ "fabric"; "total" ] j in
  if total < 28000.0 || total > 40000.0 then
    Alcotest.failf "exported plaid fabric area %.0f out of calibration band" total;
  let sum =
    List.fold_left
      (fun acc c -> acc +. json_num [ "fabric"; "categories"; c ] j)
      0.0
      [ "compute"; "compute_config"; "comm"; "comm_config"; "regs" ]
  in
  check (Alcotest.float 1e-6) "categories sum to total" total sum;
  check (Alcotest.float 1e-6) "system = fabric + spm"
    (total +. json_num [ "spm_um2" ] j)
    (json_num [ "system_um2" ] j)

(* --------------------------------------------------------------- pricing *)

(* Prices pinned bit for bit at outer 1 and 16, recorded before pricing
   moved into one module: a best-of mapping on st_4x4, a hierarchical one
   on plaid_2x2, a single-segment and a two-segment spatial run.
   Rows: (outer, cycles, energy bits, perf/area bits). *)
let priced =
  lazy
    (let dfg k = Suite.dfg (Suite.find k) in
     let map f k =
       let b = Plaid_core.Fabrics.build f in
       match
         Plaid_serve.Compile.run (Plaid_serve.Compile.for_fabric b.pcu) ~arch:b.arch
           ~dfg:(dfg k) ~seed:2025
       with
       | Some m -> m
       | None -> Alcotest.failf "%s does not map on %s" k b.arch.Plaid_arch.Arch.name
     in
     let spatial k =
       match Plaid_spatial.Spatial.run ~seed:2025 (dfg k) with
       | Ok r -> r.mappings
       | Error e -> Alcotest.fail e
     in
     Plaid_model.Energy.
       [ ( "dwconv st_4x4",
           Modulo (map Plaid_core.Fabrics.St "dwconv"),
           [ (1, 126, 0x4070e48fd9fd36f8L, 0x41c270b14d601446L);
             (16, 1926, 0x40b0238049667b5fL, 0x41c34d49238874ecL) ] );
         ( "dwconv plaid_2x2",
           Modulo (map Plaid_core.Fabrics.Plaid "dwconv"),
           [ (1, 126, 0x40644cfb5d031054L, 0x41d26a5266d61a78L);
             (16, 1926, 0x40a364f948dc11e2L, 0x41d3469e0727e249L) ] );
         ( "dwconv spatial",
           Segments (spatial "dwconv"),
           [ (1, 129, 0x4062ded551d68c6bL, 0x41c62f81a323456bL);
             (16, 1929, 0x40a1a2dcf2cf95d6L, 0x41c7bcfbc7a326d8L) ] );
         ( "gemm_u2 spatial",
           Segments (spatial "gemm_u2"),
           [ (1, 151, 0x4068f7107746887cL, 0x41b4377f49b9bdbcL);
             (16, 2416, 0x40a8f7107746887cL, 0x41b4377f49b9bdbcL) ] ) ])

let test_pricing_pinned () =
  List.iter
    (fun (name, run, rows) ->
      List.iter
        (fun (outer, cycles, energy, ppa) ->
          let what = Printf.sprintf "%s outer %d" name outer in
          check Alcotest.int (what ^ " cycles") cycles (Plaid_model.Energy.cycles ~outer run);
          check Alcotest.int64 (what ^ " energy") energy
            (Int64.bits_of_float (Plaid_model.Energy.energy ~outer run));
          check Alcotest.int64 (what ^ " perf/area") ppa
            (Int64.bits_of_float (Plaid_model.Energy.perf_per_area ~outer run)))
        rows)
    (Lazy.force priced)

let test_pricing_shapes () =
  match Lazy.force priced with
  | [ (_, Modulo st, _); _; (_, Segments one, _); (_, Segments two, _) ] ->
    check Alcotest.int "single segment" 1 (List.length one);
    check Alcotest.int "two segments" 2 (List.length two);
    (* the outer-1 modulo price is the one fabric_energy reports *)
    check Alcotest.int64 "fabric_energy is outer 1" 0x4070e48fd9fd36f8L
      (Int64.bits_of_float (Plaid_model.Energy.fabric_energy st))
  | _ -> Alcotest.fail "unexpected pricing fixtures"

(* ------------------------------------------------------------- workloads *)

let test_suite_has_30_dfgs () = check Alcotest.int "30 DFGs" 30 (List.length Suite.table2)

let test_suite_domains_balanced () =
  let count d = List.length (List.filter (fun e -> e.Suite.domain = d) Suite.table2) in
  check Alcotest.int "linear algebra" 12 (count Suite.Linear_algebra);
  check Alcotest.int "machine learning" 5 (count Suite.Machine_learning);
  check Alcotest.int "image" 13 (count Suite.Image)

let test_suite_all_lower () =
  List.iter
    (fun e ->
      let g = Suite.dfg e in
      check Alcotest.bool (Suite.name e) true (Plaid_ir.Dfg.n_nodes g > 0))
    Suite.table2

let test_suite_kernels_interpret () =
  (* every kernel runs under the DSL interpreter without faults *)
  List.iter
    (fun e ->
      let k = Plaid_ir.Unroll.apply e.Suite.base e.Suite.unroll in
      let mem = Plaid_ir.Kernel.memory_for k ~seed:3 in
      Plaid_ir.Kernel.interpret k ~params:(Suite.params e) mem)
    Suite.table2

let test_seidel_has_recurrence () =
  let g = Suite.dfg (Suite.find "seidel") in
  check Alcotest.bool "rec mii > 1" true (Plaid_ir.Analysis.rec_mii g > 1)

let test_jacobi_no_recurrence () =
  let g = Suite.dfg (Suite.find "jacobi") in
  check Alcotest.int "rec mii 1" 1 (Plaid_ir.Analysis.rec_mii g)

let test_dnn_apps_shape () =
  let lens = List.map (fun (a : Dnn.app) -> List.length a.layers) Dnn.apps in
  check Alcotest.(list int) "10/13/16 layers" [ 10; 13; 16 ] lens

let suites =
  [
    ( "area",
      [
        Alcotest.test_case "positive categories" `Quick test_area_positive_categories;
        Alcotest.test_case "plaid near paper" `Quick test_area_plaid_near_paper;
        Alcotest.test_case "plaid saves vs st" `Quick test_area_plaid_saves_vs_st;
        Alcotest.test_case "scales with fabric" `Quick test_area_scales_with_fabric;
        Alcotest.test_case "spm area" `Quick test_spm_area;
      ] );
    ( "power",
      [
        Alcotest.test_case "positive" `Quick test_power_positive;
        Alcotest.test_case "config dominates ST" `Quick test_power_config_dominates_st;
        Alcotest.test_case "plaid lower comm config" `Quick test_power_plaid_lower_comm;
        Alcotest.test_case "spatial clock gating" `Quick test_spatial_clock_gating;
        Alcotest.test_case "energy linear in cycles" `Quick test_energy_scales_with_cycles;
        Alcotest.test_case "area reports pinned" `Quick test_area_pinned;
        Alcotest.test_case "power reports pinned" `Quick test_power_pinned;
        Alcotest.test_case "gated config is leakage" `Quick test_gated_config_is_leakage;
      ] );
    ( "model-export",
      [
        Alcotest.test_case "area JSON matches the model" `Quick test_export_area_matches_model;
        Alcotest.test_case "pins the plaid fabric numbers" `Quick test_export_pins_plaid_fabric;
      ] );
    ( "pricing",
      [
        Alcotest.test_case "cycles, energy and perf/area pinned" `Quick test_pricing_pinned;
        Alcotest.test_case "segment counts and fabric_energy" `Quick test_pricing_shapes;
      ] );
    ( "workloads",
      [
        Alcotest.test_case "30 DFGs" `Quick test_suite_has_30_dfgs;
        Alcotest.test_case "domain split" `Quick test_suite_domains_balanced;
        Alcotest.test_case "all lower" `Quick test_suite_all_lower;
        Alcotest.test_case "all interpret" `Quick test_suite_kernels_interpret;
        Alcotest.test_case "seidel recurrence" `Quick test_seidel_has_recurrence;
        Alcotest.test_case "jacobi no recurrence" `Quick test_jacobi_no_recurrence;
        Alcotest.test_case "dnn apps" `Quick test_dnn_apps_shape;
      ] );
  ]
