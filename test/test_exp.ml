(* Tests for plaid_exp: table rendering, statistics helpers, and the shared
   experiment context (caching, determinism, metric plumbing). *)

let check = Alcotest.check

let test_geomean () =
  check (Alcotest.float 1e-9) "of equal" 2.0 (Plaid_exp.Ascii.geomean [ 2.0; 2.0; 2.0 ]);
  check (Alcotest.float 1e-9) "of pair" 2.0 (Plaid_exp.Ascii.geomean [ 1.0; 4.0 ]);
  check (Alcotest.float 1e-9) "empty" 1.0 (Plaid_exp.Ascii.geomean []);
  (* non-positive entries are ignored, not fatal *)
  check (Alcotest.float 1e-9) "ignores zeros" 4.0 (Plaid_exp.Ascii.geomean [ 0.0; 4.0 ])

let test_formatting () =
  check Alcotest.string "f2" "1.50" (Plaid_exp.Ascii.f2 1.5);
  check Alcotest.string "pct" "43.0%" (Plaid_exp.Ascii.pct 0.43)

let ctx = lazy (Plaid_exp.Ctx.create ~seed:123 ~outer:4 ())

let entry = lazy (Plaid_workloads.Suite.find "dwconv")

let test_ctx_caches () =
  let c = Lazy.force ctx and e = Lazy.force entry in
  let a = Plaid_exp.Ctx.map c St e and b = Plaid_exp.Ctx.map c St e in
  (* same cached object, not merely equal *)
  check Alcotest.bool "physically cached" true (a == b)

let test_ctx_outer_scaling () =
  let c = Lazy.force ctx and e = Lazy.force entry in
  match Plaid_exp.Ctx.map c St e with
  | None -> Alcotest.fail "dwconv should map"
  | Some m ->
    let outer = Plaid_exp.Ctx.outer c and run = Plaid_model.Energy.Modulo m in
    let cycles = Plaid_model.Energy.cycles ~outer run in
    let expected =
      (m.Plaid_mapping.Mapping.ii * ((4 * m.dfg.Plaid_ir.Dfg.trip) - 1))
      + Plaid_mapping.Mapping.makespan m
    in
    check Alcotest.int "outer-scaled cycles" expected cycles;
    check Alcotest.bool "energy positive" true (Plaid_model.Energy.energy ~outer run > 0.0);
    check Alcotest.bool "ppa positive" true (Plaid_model.Energy.perf_per_area ~outer run > 0.0)

let test_ctx_archs_distinct () =
  let c = Lazy.force ctx in
  let n_fus f = Array.length (Plaid_exp.Ctx.fabric c f).arch.Plaid_arch.Arch.fus in
  check Alcotest.bool "plaid3 bigger" true (n_fus Plaid3 > n_fus Plaid);
  check Alcotest.int "st6 has 36 FUs" 36 (n_fus St6)

let test_paper_table2_complete () =
  (* the printed paper reference covers the whole suite *)
  let names = List.map Plaid_workloads.Suite.name Plaid_workloads.Suite.table2 in
  check Alcotest.int "30 names" 30 (List.length (List.sort_uniq compare names))

let suites =
  [
    ( "exp",
      [
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "formatting" `Quick test_formatting;
        Alcotest.test_case "ctx caches" `Quick test_ctx_caches;
        Alcotest.test_case "outer scaling" `Quick test_ctx_outer_scaling;
        Alcotest.test_case "archs distinct" `Quick test_ctx_archs_distinct;
        Alcotest.test_case "suite names unique" `Quick test_paper_table2_complete;
      ] );
  ]
