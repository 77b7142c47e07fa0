(* Tests for the synthetic DFG generator and utilization analytics — plus
   generator-driven fuzzing of the whole mapping pipeline on both fabrics. *)

open Plaid_ir

let check = Alcotest.check

let st4 = lazy (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st4")

let plaid2 = lazy (Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"p2" ())

let spec = { Generate.seed = 5; size = 8; trip = 8 }

(* -------------------------------------------------------------- generator *)

let test_families_valid () =
  List.iter
    (fun (name, g) ->
      check Alcotest.bool name true (Dfg.n_nodes g > 0);
      check Alcotest.int (name ^ " topo covers") (Dfg.n_nodes g)
        (List.length (Dfg.topo_order g)))
    (Generate.all_families spec)

let test_generator_deterministic () =
  let a = Generate.random_dag spec and b = Generate.random_dag spec in
  check Alcotest.int "same size" (Dfg.n_nodes a) (Dfg.n_nodes b);
  check Alcotest.int "same edges" (Array.length a.Dfg.edges) (Array.length b.Dfg.edges)

let test_inplace_stencil_has_recurrence () =
  let g = Generate.stencil ~in_place:true ~width:3 spec in
  check Alcotest.bool "recurrent" true (Analysis.rec_mii g > 1);
  let g' = Generate.stencil ~width:3 spec in
  check Alcotest.int "out-of-place free" 1 (Analysis.rec_mii g')

let test_reduction_lanes () =
  let g = Generate.reduction ~lanes:3 { spec with size = 9 } in
  let self_loops =
    Array.to_list g.Dfg.edges
    |> List.filter (fun (e : Dfg.edge) -> e.src = e.dst && e.dist = 1)
  in
  check Alcotest.int "three accumulators" 3 (List.length self_loops)

(* fuzz: every family maps and verifies on both fabrics *)
let prop_families_map_everywhere =
  QCheck.Test.make ~name:"generated DFGs map and verify on ST and Plaid" ~count:6
    QCheck.(make ~print:string_of_int Gen.(int_range 1 500))
    (fun seed ->
      let spec = { Generate.seed; size = 6; trip = 6 } in
      List.for_all
        (fun (_, g) ->
          let st_ok =
            match
              (Plaid_mapping.Driver.map
                 ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
                 ~arch:(Lazy.force st4) ~dfg:g ~seed ())
                .Plaid_mapping.Driver.mapping
            with
            | None -> false
            | Some m -> Plaid_mapping.Mapping.validate m = Ok ()
          in
          let plaid_ok =
            match
              (Plaid_core.Hier_mapper.map ~params:Plaid_core.Hier_mapper.quick
                 ~plaid:(Lazy.force plaid2) ~seed g)
                .Plaid_core.Hier_mapper.mapping
            with
            | None -> false
            | Some m -> Plaid_mapping.Mapping.validate m = Ok ()
          in
          st_ok && plaid_ok)
        (Generate.all_families spec))

(* ------------------------------------------------------------ utilization *)

let mapped =
  lazy
    (match
       (Plaid_mapping.Driver.map
          ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
          ~arch:(Lazy.force st4)
          ~dfg:(Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "gemm_u2"))
          ~seed:3 ())
         .Plaid_mapping.Driver.mapping
     with
    | Some m -> m
    | None -> Alcotest.fail "gemm_u2 should map")

let test_utilization_bounds () =
  let m = Lazy.force mapped in
  List.iter
    (fun (cls, u) ->
      if u < 0.0 || u > 1.0 then Alcotest.failf "utilization %s = %f out of range" cls u)
    (Plaid_mapping.Mapping.utilization m)

let test_utilization_fus_busy () =
  let m = Lazy.force mapped in
  let u = Plaid_mapping.Mapping.utilization m in
  let get c = match List.assoc_opt c u with Some v -> v | None -> 0.0 in
  (* 18 nodes on 16 FUs x II slots: respectable FU busy-ness *)
  check Alcotest.bool "alu util > 0" true (get "alu" > 0.0 || get "alsu" > 0.0)

let suites =
  [
    ( "generate",
      [
        Alcotest.test_case "families valid" `Quick test_families_valid;
        Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "in-place stencil recurrence" `Quick test_inplace_stencil_has_recurrence;
        Alcotest.test_case "reduction lanes" `Quick test_reduction_lanes;
        Test_qc.to_alcotest prop_families_map_everywhere;
      ] );
    ( "utilization",
      [
        Alcotest.test_case "bounds" `Quick test_utilization_bounds;
        Alcotest.test_case "fus busy" `Quick test_utilization_fus_busy;
      ] );
  ]
