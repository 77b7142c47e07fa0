(* Tests for the differential fuzzing harness: oracle soundness on live
   campaigns, case-file round trips, worker-count determinism, the greedy
   shrinker (including a deliberately planted mapper bug it must reduce to
   a tiny witness), metamorphic unrolling over the workload suite, and the
   permanent regression gate replaying every case under test/corpus/ and
   pinning the mapping each one gets to a golden digest. *)

open Plaid_check
open Plaid_mapping

let check = Alcotest.check

(* ----------------------------------------------------------- corpus gate *)

let corpus_dir () =
  List.find_opt (fun d -> Sys.file_exists d && Sys.is_directory d)
    [ "corpus"; "test/corpus"; "../../../test/corpus" ]

(* every corpus case, in file-name order *)
let corpus_cases () =
  match corpus_dir () with
  | None -> Alcotest.fail "test/corpus/ not found"
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort compare
    |> List.map (fun f ->
           match Case.load ~path:(Filename.concat dir f) with
           | Error e -> Alcotest.failf "%s does not parse: %s" f e
           | Ok c -> (f, c))

let test_corpus_replays () =
  let cases = corpus_cases () in
  check Alcotest.bool "corpus is non-empty" true (cases <> []);
  List.iter
    (fun (f, c) ->
      let o = Oracle.run c in
      match o.Oracle.o_failure with
      | Some fl -> Alcotest.failf "%s regressed [%s]: %s" f fl.Oracle.fail_kind fl.Oracle.fail_detail
      | None -> ())
    cases

(* MD5 of the mapfile each corpus case gets through the serve [case]
   request path ([Compile.for_fabric] on the case's faulted fabric, at the
   case's seed).  Recorded when a plain Dijkstra router core still shipped
   beside the A* + memo one and both produced these bytes; a new corpus
   case needs its digest added here. *)
let golden_corpus =
  [ ("exact_route_backtrack.case", "57e75d763a0b2e2c87693d34089976d8");
    ("seed2026_trial000.case", "21f33c81eeae0d6d9de555437b0c333f");
    ("seed2026_trial001.case", "d0e7adb36b9ef921af2135dc20af8a9f");
    ("seed2026_trial002.case", "95630a113a655322b7cb6b2ba22506e2");
    ("seed2026_trial003.case", "ed7fa4efe982fdc27d6e574c196ea594");
    ("seed2026_trial004.case", "888a23ffb92f86b17c557f788a6b399f");
    ("seed2026_trial005.case", "6f1281c9e28c1d9c1715dfeb54d856ea");
    ("seed2026_trial006.case", "4601923eb355e3c21f4e4c9a63dde807");
    ("seed2026_trial007.case", "70bab9bc2aa5c3e424cf60f7b523def2");
    ("seed2026_trial008.case", "cec1319dccd6b70ffe29fe3bf5a519e5");
    ("seed2026_trial009.case", "e1ea41a1d0363973e9607f1090e6c222");
    ("tight_self_recurrence.case", "340dc6d8191b1927696532b82b16a95d") ]

let test_corpus_digests () =
  let cases = corpus_cases () in
  check Alcotest.(list string) "every corpus case has a golden digest"
    (List.map fst golden_corpus) (List.map fst cases);
  List.iter2
    (fun (f, c) (_, want) ->
      let arch, pcu = Case.build c in
      let blob =
        match
          Plaid_serve.Compile.run (Plaid_serve.Compile.for_fabric pcu) ~arch ~dfg:c.Case.dfg
            ~seed:c.Case.seed
        with
        | None -> ""
        | Some m -> Mapfile.to_string m
      in
      check Alcotest.string f want (Digest.to_hex (Digest.string blob)))
    cases golden_corpus

(* ------------------------------------------------------- case round trip *)

let test_case_roundtrip () =
  for i = 0 to 11 do
    let c = Fuzz.gen_case ~seed:1234 i in
    let text = Case.to_string c in
    match Case.of_string text with
    | Error e -> Alcotest.failf "trial %d (%s): %s" i (Case.summary c) e
    | Ok c' -> check Alcotest.string (Printf.sprintf "trial %d bytes" i) text (Case.to_string c')
  done

let test_case_rejects_garbage () =
  (match Case.of_string "not a case" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected header rejection");
  (* a fault that does not fit the declared fabric must be rejected *)
  let bad = "plaidfuzz-1\nseed 1\narch mesh 2 2 2 8 1\nfault deadfu 9999\ndfg g 2\nnode 0 add 0:1,1:2 - n\n" in
  match Case.of_string bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected fault re-validation to fail"

(* ------------------------------------------------------ oracle soundness *)

(* a short live campaign must come back clean: any failure here is a real
   toolchain bug the fuzzer just found *)
let test_campaign_clean () =
  let r = Fuzz.run ~seed:7 ~trials:8 () in
  (match Fuzz.failures r with
  | [] -> ()
  | t :: _ ->
    let fl = Option.get t.Fuzz.t_outcome.Oracle.o_failure in
    Alcotest.failf "trial %d [%s]: %s\n%s" t.Fuzz.t_index fl.Oracle.fail_kind
      fl.Oracle.fail_detail
      (Case.to_string t.Fuzz.t_case));
  check Alcotest.int "all trials ran" 8 (List.length r.Fuzz.f_results)

let test_fuzz_rejects_negative_trials () =
  match Fuzz.run ~seed:1 ~trials:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* the report is a pure function of (seed, trials): running the same
   campaign on pools of different sizes must yield identical bytes *)
let test_fuzz_deterministic_across_workers () =
  let report n =
    Plaid_util.Pool.with_pool ~size:n (fun pool ->
        Fuzz.report_string (Fuzz.run ~pool ~seed:11 ~trials:6 ()))
  in
  check Alcotest.string "-j1 = -j4" (report 1) (report 4)

(* ------------------------------------------------------------- shrinking *)

let mesh_case ~seed ~size =
  let dfg = Plaid_ir.Generate.random_dag { Plaid_ir.Generate.seed; size; trip = 3 } in
  { Case.seed; arch = Arch_gen.Mesh { rows = 4; cols = 4; regs = 3; entries = 16; mem_cols = 2 };
    faults = []; dfg }

(* A deliberately planted mapper bug: an off-by-one reimplementation of
   the route-length rule (it drops the producer->consumer cycle).  A
   checker built on it disagrees with the real rule on every mapping with
   at least one routed edge, so the shrinker — told this is a "failure" —
   must reduce an arbitrary mapped case to a minimal witness. *)
let buggy_edge_length (m : Mapping.t) (e : Plaid_ir.Dfg.edge) =
  m.Mapping.times.(e.dst) - m.Mapping.times.(e.src) + (e.dist * m.Mapping.ii) - 1

let off_by_one_route_bug (c : Case.t) =
  match Case.build c with
  | exception Invalid_argument _ -> false
  | arch, _ -> (
    match
      (Driver.map ~algo:(Driver.Pf Pathfinder.quick) ~arch ~dfg:c.Case.dfg
         ~seed:c.Case.seed ())
        .Driver.mapping
    with
    | None -> false
    | Some m ->
      List.exists
        (fun (r : Mapping.route_entry) ->
          Mapping.edge_length m r.re_edge <> buggy_edge_length m r.re_edge)
        m.Mapping.routes)

let test_shrinker_minimizes_injected_bug () =
  let c = mesh_case ~seed:42 ~size:10 in
  check Alcotest.bool "bug fires on the full case" true (off_by_one_route_bug c);
  let s = Shrink.minimize ~predicate:off_by_one_route_bug c in
  check Alcotest.bool "bug still fires on the shrunk case" true (off_by_one_route_bug s);
  let n = Plaid_ir.Dfg.n_nodes s.Case.dfg in
  if n > 8 then
    Alcotest.failf "shrunk repro has %d nodes (want <= 8):\n%s" n (Case.to_string s);
  (* and the minimized case still round-trips through the corpus format *)
  match Case.of_string (Case.to_string s) with
  | Error e -> Alcotest.failf "shrunk case does not re-parse: %s" e
  | Ok _ -> ()

let test_shrinker_keeps_passing_case () =
  let c = mesh_case ~seed:3 ~size:5 in
  let s = Shrink.minimize ~predicate:(fun _ -> false) c in
  check Alcotest.string "untouched" (Case.to_string c) (Case.to_string s)

let test_shrink_surgery () =
  let g = Plaid_ir.Generate.random_dag { Plaid_ir.Generate.seed = 9; size = 8; trip = 4 } in
  let n = Plaid_ir.Dfg.n_nodes g in
  (match Shrink.remove_node g (n - 1) with
  | None -> Alcotest.fail "removing the last node should rebuild"
  | Some g' -> check Alcotest.int "one fewer node" (n - 1) (Plaid_ir.Dfg.n_nodes g'));
  (match Shrink.set_trip g 1 with
  | None -> Alcotest.fail "trip 1 should rebuild"
  | Some g' -> check Alcotest.int "trip set" 1 g'.Plaid_ir.Dfg.trip);
  let n_edges = Array.length g.Plaid_ir.Dfg.edges in
  match Shrink.drop_edge g 0 with
  | None -> Alcotest.fail "dropping edge 0 should rebuild"
  | Some g' ->
    check Alcotest.int "one fewer edge" (n_edges - 1) (Array.length g'.Plaid_ir.Dfg.edges)

(* ------------------------------------------------- metamorphic unrolling *)

let test_unroll_preserves_semantics () =
  List.iter
    (fun (e : Plaid_workloads.Suite.entry) ->
      if e.unroll > 1 then
        match
          Oracle.check_unroll e.base ~params:(Plaid_workloads.Suite.params e) ~u:e.unroll
        with
        | Ok () -> ()
        | Error fl ->
          Alcotest.failf "%s [%s]: %s" e.base.Plaid_ir.Kernel.name fl.Oracle.fail_kind
            fl.Oracle.fail_detail)
    Plaid_workloads.Suite.table2

let suites =
  [
    ( "fuzz-corpus",
      [ Alcotest.test_case "every corpus case replays green" `Quick test_corpus_replays;
        Alcotest.test_case "every corpus case maps to its golden digest" `Quick
          test_corpus_digests ] );
    ( "fuzz-harness",
      [
        Alcotest.test_case "case round trip" `Quick test_case_roundtrip;
        Alcotest.test_case "case rejects garbage" `Quick test_case_rejects_garbage;
        Alcotest.test_case "live campaign is clean" `Slow test_campaign_clean;
        Alcotest.test_case "negative trials rejected" `Quick test_fuzz_rejects_negative_trials;
        Alcotest.test_case "worker-count determinism" `Slow test_fuzz_deterministic_across_workers;
      ] );
    ( "fuzz-shrink",
      [
        Alcotest.test_case "injected off-by-one shrinks to <= 8 nodes" `Slow
          test_shrinker_minimizes_injected_bug;
        Alcotest.test_case "passing case left untouched" `Quick test_shrinker_keeps_passing_case;
        Alcotest.test_case "dfg surgery" `Quick test_shrink_surgery;
      ] );
    ( "fuzz-metamorphic",
      [ Alcotest.test_case "unrolling preserves semantics" `Quick test_unroll_preserves_semantics ] );
  ]
