(* Tests for the exact branch-and-bound mapper, including optimality-gap
   certification of the heuristic mappers on small DFGs. *)

open Plaid_ir
open Plaid_mapping

let check = Alcotest.check

let st4 = lazy (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st4")

let small_chain k =
  let g = Generate.chain { Generate.seed = k; size = 4; trip = 8 } in
  g

let test_exact_finds_mapping () =
  let g = small_chain 1 in
  match Exact.min_ii (Lazy.force st4) g ~budget:200000 with
  | None -> Alcotest.fail "exact found nothing"
  | Some (ii, m) ->
    check Alcotest.int "at mii" (Analysis.mii g (Plaid_arch.Arch.capacity (Lazy.force st4))) ii;
    (match Mapping.validate m with Ok () -> () | Error e -> Alcotest.fail e)

let test_exact_exhausts_budget_gracefully () =
  let g = Generate.random_dag { Generate.seed = 2; size = 10; trip = 8 } in
  let cap = Plaid_arch.Arch.capacity (Lazy.force st4) in
  let ii = Analysis.mii g cap in
  match Schedule.compute g ~ii ~cap with
  | None -> ()
  | Some times ->
    let o = Exact.find (Lazy.force st4) g ~ii ~times ~budget:5 in
    check Alcotest.bool "budget respected" true (o.Exact.explored <= 6)

(* The explored-state count is a fingerprint of the prune: pinned on the
   route-backtracking repro (a dead FU) and on a link-faulted Plaid case,
   at the II and schedule PathFinder finds, as the fuzz oracle runs it. *)
let test_exact_explored_pinned () =
  List.iter
    (fun (file, want) ->
      let c =
        let path = Filename.concat (Option.get (Test_check.corpus_dir ())) file in
        match Plaid_check.Case.load ~path with
        | Ok c -> c
        | Error e -> Alcotest.failf "%s: %s" file e
      in
      let arch, _ = Plaid_check.Case.build c in
      let g = c.Plaid_check.Case.dfg in
      match
        (Driver.map ~algo:(Driver.Pf Pathfinder.quick) ~arch ~dfg:g
           ~seed:c.Plaid_check.Case.seed ())
          .Driver.mapping
      with
      | None -> Alcotest.failf "%s: PathFinder found no mapping" file
      | Some m ->
        let o = Exact.find arch g ~ii:m.Mapping.ii ~times:m.Mapping.times ~budget:200_000 in
        check Alcotest.bool (file ^ ": mapped") true (o.Exact.mapping <> None);
        check Alcotest.int (file ^ ": explored") want o.Exact.explored)
    [ ("exact_route_backtrack.case", 21); ("seed2026_trial005.case", 199333) ]

let test_exact_agrees_with_validator () =
  List.iter
    (fun seed ->
      let g = Generate.tree { Generate.seed = seed; size = 4; trip = 8 } in
      match Exact.min_ii (Lazy.force st4) g ~budget:200000 with
      | None -> Alcotest.failf "tree seed %d unmappable" seed
      | Some (_, m) -> (
        match Mapping.validate m with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d: %s" seed e))
    [ 1; 2; 3 ]

(* The headline: SA reaches the exact minimum II (or within +1) on small
   kernels — the annealer is not leaving easy performance on the table. *)
let test_sa_optimality_gap () =
  List.iter
    (fun seed ->
      let g = Generate.chain { Generate.seed = seed; size = 5; trip = 8 } in
      let arch = Lazy.force st4 in
      match Exact.min_ii arch g ~budget:300000 with
      | None -> () (* nothing to compare against *)
      | Some (exact_ii, _) -> (
        match
          (Driver.map ~algo:(Driver.Sa Anneal.default) ~arch ~dfg:g ~seed:7 ()).Driver.mapping
        with
        | None -> Alcotest.failf "SA failed where exact succeeded (seed %d)" seed
        | Some m ->
          if m.Mapping.ii > exact_ii + 1 then
            Alcotest.failf "seed %d: SA II %d vs exact %d" seed m.Mapping.ii exact_ii))
    [ 1; 2; 3; 4 ]

let suites =
  [
    ( "exact",
      [
        Alcotest.test_case "finds mapping at MII" `Quick test_exact_finds_mapping;
        Alcotest.test_case "budget respected" `Quick test_exact_exhausts_budget_gracefully;
        Alcotest.test_case "explored count pinned" `Quick test_exact_explored_pinned;
        Alcotest.test_case "valid mappings" `Quick test_exact_agrees_with_validator;
        Alcotest.test_case "SA optimality gap" `Slow test_sa_optimality_gap;
      ] );
  ]
