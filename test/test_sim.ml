(* Tests for plaid_sim: scratchpad, golden reference, cycle-level simulation
   of mapped kernels (bit-exactness on both architectures), and property
   tests cross-checking kernel DSL semantics against the DFG reference. *)

open Plaid_ir

let check = Alcotest.check

(* ------------------------------------------------------------------- spm *)

let test_spm_roundtrip () =
  let spm = Plaid_sim.Spm.create () in
  Plaid_sim.Spm.write spm "a" 3 42;
  check Alcotest.int "read back" 42 (Plaid_sim.Spm.read spm "a" 3);
  check Alcotest.int "zero fill" 0 (Plaid_sim.Spm.read spm "a" 0)

let test_spm_bounds () =
  let spm = Plaid_sim.Spm.create () in
  Plaid_sim.Spm.ensure spm "a" 4;
  (match Plaid_sim.Spm.read spm "a" 9 with
  | _ -> Alcotest.fail "expected bounds error"
  | exception Invalid_argument _ -> ());
  match Plaid_sim.Spm.read spm "nope" 0 with
  | _ -> Alcotest.fail "expected unknown array"
  | exception Invalid_argument _ -> ()

let test_spm_copy_independent () =
  let spm = Plaid_sim.Spm.create () in
  Plaid_sim.Spm.write spm "a" 0 1;
  let c = Plaid_sim.Spm.copy spm in
  Plaid_sim.Spm.write c "a" 0 99;
  check Alcotest.int "original untouched" 1 (Plaid_sim.Spm.read spm "a" 0)

(* -------------------------------------------------------------- reference *)

let sumsq_kernel =
  {
    Kernel.name = "sumsq";
    trip = 8;
    body =
      [
        Kernel.Let
          ("sq", Kernel.Binop (Op.Mul, Kernel.Load ("x", Kernel.idx 1), Kernel.Load ("x", Kernel.idx 1)));
        Kernel.Set_carry ("s", Kernel.Binop (Op.Add, Kernel.Carry "s", Kernel.Temp "sq"));
        Kernel.Store ("out", Kernel.fixed 0, Kernel.Carry "s");
      ];
    carries = [ ("s", 0) ];
  }

let test_reference_matches_kernel_interpreter () =
  (* the DFG reference and the DSL interpreter agree on every array *)
  let k = sumsq_kernel in
  let g = Lower.lower k in
  let mem = Kernel.memory_for k ~seed:5 in
  let spm = Plaid_sim.Spm.create () in
  Hashtbl.iter (fun name a -> Array.iteri (fun i v -> Plaid_sim.Spm.write spm name i v) a) mem;
  Kernel.interpret k ~params:[] mem;
  Plaid_sim.Reference.run g spm;
  Hashtbl.iter
    (fun name a ->
      Array.iteri
        (fun i v -> check Alcotest.int (Printf.sprintf "%s[%d]" name i) v (Plaid_sim.Spm.read spm name i))
        a)
    mem

let test_reference_carry_init () =
  (* a nonzero carry initial value must flow through edge init *)
  let k = { sumsq_kernel with carries = [ ("s", 100) ] } in
  let g = Lower.lower k in
  let mem = Kernel.memory_for k ~seed:6 in
  let spm = Plaid_sim.Spm.create () in
  Hashtbl.iter (fun name a -> Array.iteri (fun i v -> Plaid_sim.Spm.write spm name i v) a) mem;
  Kernel.interpret k ~params:[] mem;
  Plaid_sim.Reference.run g spm;
  check Alcotest.int "out agrees with DSL" (Hashtbl.find mem "out").(0)
    (Plaid_sim.Spm.read spm "out" 0)

(* -------------------------------------------------------------- cycle sim *)

let st4 = lazy (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st4")

let plaid2 = lazy (Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"p2" ())

let verify_on_st kernel params =
  let g = Lower.lower kernel in
  match
    (Plaid_mapping.Driver.map
       ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
       ~arch:(Lazy.force st4) ~dfg:g ~seed:7 ())
      .Plaid_mapping.Driver.mapping
  with
  | None -> Alcotest.failf "mapping failed for %s" kernel.Kernel.name
  | Some m -> (
    let spm = Plaid_sim.Spm.of_kernel kernel ~params ~seed:3 in
    match Plaid_sim.Cycle_sim.verify m spm with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "%s: %s" kernel.Kernel.name msg)

let verify_on_plaid kernel params =
  let g = Lower.lower kernel in
  match
    (Plaid_core.Hier_mapper.map ~params:Plaid_core.Hier_mapper.quick ~plaid:(Lazy.force plaid2)
       ~seed:7 g)
      .Plaid_core.Hier_mapper.mapping
  with
  | None -> Alcotest.failf "plaid mapping failed for %s" kernel.Kernel.name
  | Some m -> (
    let spm = Plaid_sim.Spm.of_kernel kernel ~params ~seed:3 in
    match Plaid_sim.Cycle_sim.verify m spm with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "%s: %s" kernel.Kernel.name msg)

let test_cycle_sim_sumsq_st () = verify_on_st sumsq_kernel []

let test_cycle_sim_sumsq_plaid () = verify_on_plaid sumsq_kernel []

let test_cycle_sim_stencil_st () =
  (* in-place stencil: exercises memory-ordering edges under modulo overlap *)
  verify_on_st (Plaid_ir.Unroll.apply Plaid_workloads.Kernels.seidel 1) []

let test_cycle_sim_reduction_unrolled () =
  verify_on_st (Plaid_ir.Unroll.apply sumsq_kernel 2) []

let test_cycle_sim_reports_stats () =
  let g = Lower.lower sumsq_kernel in
  match
    (Plaid_mapping.Driver.map
       ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
       ~arch:(Lazy.force st4) ~dfg:g ~seed:7 ())
      .Plaid_mapping.Driver.mapping
  with
  | None -> Alcotest.fail "mapping failed"
  | Some m -> (
    let spm = Plaid_sim.Spm.of_kernel sumsq_kernel ~params:[] ~seed:3 in
    match Plaid_sim.Cycle_sim.run m spm with
    | Error msg -> Alcotest.fail msg
    | Ok stats ->
      check Alcotest.int "firings = nodes x trip" (Dfg.n_nodes g * 8) stats.fu_firings;
      check Alcotest.bool "wire hops positive" true (stats.wire_hops > 0))

(* a corrupted mapping must be caught by the validator (and would fail sim) *)
let test_validator_catches_tampering () =
  let g = Lower.lower sumsq_kernel in
  match
    (Plaid_mapping.Driver.map
       ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
       ~arch:(Lazy.force st4) ~dfg:g ~seed:7 ())
      .Plaid_mapping.Driver.mapping
  with
  | None -> Alcotest.fail "mapping failed"
  | Some m ->
    let tampered = { m with Plaid_mapping.Mapping.times = Array.map (fun t -> t + 1) m.times } in
    (* shifting every time by one breaks route latencies against back edges *)
    let tampered2 =
      { m with Plaid_mapping.Mapping.place = Array.map (fun _ -> m.place.(0)) m.place }
    in
    check Alcotest.bool "double-booked placement rejected" true
      (Plaid_mapping.Mapping.validate tampered2 <> Ok ());
    ignore tampered

(* ---------------------------------------------------------- pinned stats *)

(* Simulator counts of fixed-seed quick mappings of suite kernels.  Nothing
   else pins [stall_cycles]; a change to event order, wire replay or the
   busy-cycle count shows up here. *)

let suite_spm name =
  let e = Plaid_workloads.Suite.find name in
  let k = Unroll.apply e.Plaid_workloads.Suite.base e.Plaid_workloads.Suite.unroll in
  Plaid_sim.Spm.of_kernel k ~params:(Plaid_workloads.Suite.params e) ~seed:77

let quick_st name =
  (Plaid_mapping.Driver.map
     ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
     ~arch:(Lazy.force st4)
     ~dfg:(Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find name))
     ~seed:7 ())
    .Plaid_mapping.Driver.mapping

let quick_plaid name =
  (Plaid_core.Hier_mapper.map ~params:Plaid_core.Hier_mapper.quick ~plaid:(Lazy.force plaid2)
     ~seed:7
     (Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find name)))
    .Plaid_core.Hier_mapper.mapping

let pinned_kernels =
  [ "atax_u2"; "bicg_u2"; "doitgen_u2"; "gemm_u2"; "gemver_u2"; "conv2x2"; "dwconv"; "fc";
    "cholesky_u2"; "durbin_u2"; "fdtd_u2"; "gramsc_u2"; "jacobi"; "seidel_u2" ]

let show_stats (s : Plaid_sim.Cycle_sim.stats) =
  Printf.sprintf "%d %d %d %d" s.cycles s.fu_firings s.wire_hops s.stall_cycles

let pinned_stats fabric map_on =
  List.map
    (fun name ->
      match map_on name with
      | None -> Alcotest.failf "%s on %s: quick mapping failed" name fabric
      | Some m -> (
        match Plaid_sim.Cycle_sim.verify m (suite_spm name) with
        | Ok s -> Printf.sprintf "%s %s" name (show_stats s)
        | Error e -> Alcotest.failf "%s on %s: %s" name fabric e))
    pinned_kernels

(* name cycles fu_firings wire_hops stall_cycles *)
let st_stats_pins =
  [ "atax_u2 130 608 1952 0"; "bicg_u2 130 608 2048 0"; "doitgen_u2 67 320 896 0";
    "gemm_u2 101 576 2304 0"; "gemver_u2 132 576 1664 0"; "conv2x2 197 1088 3008 0";
    "dwconv 126 480 1440 0"; "fc 132 704 2560 0"; "cholesky_u2 68 416 1312 0";
    "durbin_u2 131 480 2400 0"; "fdtd_u2 132 448 1216 0"; "gramsc_u2 68 384 1280 0";
    "jacobi 70 448 1216 0"; "seidel_u2 130 384 1152 0" ]

let plaid_stats_pins =
  [ "atax_u2 102 608 2944 0"; "bicg_u2 102 608 2912 0"; "doitgen_u2 101 320 1312 0";
    "gemm_u2 105 576 2784 0"; "gemver_u2 104 576 2816 0"; "conv2x2 201 1088 4480 0";
    "dwconv 126 480 1980 0"; "fc 134 704 3264 0"; "cholesky_u2 103 416 2144 0";
    "durbin_u2 71 480 2176 0"; "fdtd_u2 74 448 2080 1"; "gramsc_u2 71 384 1600 0";
    "jacobi 135 448 1856 0"; "seidel_u2 76 384 1888 0" ]

let test_stats_pinned_st () =
  check Alcotest.(list string) "st_4x4" st_stats_pins (pinned_stats "st_4x4" quick_st)

let test_stats_pinned_plaid () =
  check Alcotest.(list string) "plaid_2x2" plaid_stats_pins (pinned_stats "plaid_2x2" quick_plaid)

(* Every node issued five cycles late: the schedule still holds, and the
   five leading cycles are stalls. *)
let shifted_pin = "106 576 2304 5"

let test_stats_pinned_shifted () =
  match quick_st "gemm_u2" with
  | None -> Alcotest.fail "gemm_u2: quick mapping failed"
  | Some m -> (
    let late = { m with Plaid_mapping.Mapping.times = Array.map (fun t -> t + 5) m.times } in
    match Plaid_sim.Cycle_sim.verify late (suite_spm "gemm_u2") with
    | Ok s -> check Alcotest.string "gemm_u2 five cycles late" shifted_pin (show_stats s)
    | Error e -> Alcotest.fail e)

(* A mapping moved onto a fabric with a dead FU under one of its nodes and
   a broken port on one of its routes: the counts are the healthy ones, and
   the corrupted memory is reported word for word. *)
let faulted_pins =
  ("101 576 2304 0", "memory mismatch (1 locations): C[0]: mapped 3467, reference 5225")

let test_stats_pinned_faulted () =
  match quick_st "gemm_u2" with
  | None -> Alcotest.fail "gemm_u2: quick mapping failed"
  | Some m ->
    let port =
      List.find_map
        (fun (r : Plaid_mapping.Mapping.route_entry) ->
          List.find_map
            (fun (res, _) ->
              match (Plaid_arch.Arch.resource m.arch res).kind with
              | Plaid_arch.Arch.Port -> Some res
              | _ -> None)
            r.re_path)
        m.routes
      |> Option.get
    in
    let faulted =
      Plaid_arch.Arch.set_faults m.arch
        [ Plaid_arch.Arch.Dead_fu m.place.(3); Plaid_arch.Arch.Broken_port port ]
    in
    let moved = { m with Plaid_mapping.Mapping.arch = faulted } in
    let stats =
      match Plaid_sim.Cycle_sim.run moved (suite_spm "gemm_u2") with
      | Ok s -> show_stats s
      | Error e -> Alcotest.fail e
    in
    let mismatch =
      match Plaid_sim.Cycle_sim.verify moved (suite_spm "gemm_u2") with
      | Ok _ -> Alcotest.fail "faulted fabric must mis-simulate"
      | Error e -> e
    in
    check Alcotest.(pair string string) "faulted gemm_u2" faulted_pins (stats, mismatch)

(* Two different values on one (resource, cycle): route the second data
   edge through the first edge's first hop at the same absolute cycle, and
   load the result without validation so it reaches the simulator. *)
let wire_conflict_pin =
  "wire conflict: resource 211 cycle 1 carries node 0/iter 0 and node 1/iter 0"

let test_wire_conflict_message () =
  let g = Lower.lower sumsq_kernel in
  let arch = Lazy.force st4 in
  match
    (Plaid_mapping.Driver.map
       ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
       ~arch ~dfg:g ~seed:7 ())
      .Plaid_mapping.Driver.mapping
  with
  | None -> Alcotest.fail "mapping failed"
  | Some m -> (
    let a = List.find (fun (r : Plaid_mapping.Mapping.route_entry) -> r.re_path <> []) m.routes in
    let res, elapsed = List.hd a.re_path in
    let cycle = m.times.(a.re_edge.src) + elapsed in
    let clash (r : Plaid_mapping.Mapping.route_entry) =
      if r.re_edge.src = a.re_edge.src then r
      else { r with re_path = [ (res, cycle - m.times.(r.re_edge.src)) ] }
    in
    let bad = { m with Plaid_mapping.Mapping.routes = List.map clash m.routes } in
    match
      Plaid_mapping.Mapfile.of_string ~validate:false
        ~resolve:(fun _ -> Some arch)
        (Plaid_mapping.Mapfile.to_string bad)
    with
    | Error e -> Alcotest.fail e
    | Ok loaded -> (
      let spm = Plaid_sim.Spm.of_kernel sumsq_kernel ~params:[] ~seed:3 in
      match Plaid_sim.Cycle_sim.run loaded spm with
      | Ok _ -> Alcotest.fail "clashing routes must be rejected"
      | Error msg -> check Alcotest.string "conflict message" wire_conflict_pin msg))

(* Mappings loaded without validation can carry values no mapper emits; the
   simulator answers them with an error instead of sizing arrays by them. *)
let test_malformed_mappings_refused () =
  match quick_st "gemm_u2" with
  | None -> Alcotest.fail "gemm_u2: quick mapping failed"
  | Some m ->
    let r0 = List.hd m.routes in
    let cases =
      [ ("simulation fault: II 0", { m with Plaid_mapping.Mapping.ii = 0 });
        ( "simulation fault: route through unknown resource 9999",
          { m with routes = { r0 with re_path = [ (9999, 1) ] } :: List.tl m.routes } );
        ( "simulation fault: schedule spans ",
          { m with times = Array.mapi (fun v t -> if v = 0 then t + (1 lsl 21) else t) m.times } ) ]
    in
    List.iter
      (fun (want, bad) ->
        match Plaid_sim.Cycle_sim.run bad (suite_spm "gemm_u2") with
        | Ok _ -> Alcotest.failf "expected %S" want
        | Error e ->
          check Alcotest.bool (Printf.sprintf "%S starts %S" e want) true
            (String.starts_with ~prefix:want e))
      cases

(* property: random small kernels verify bit-exact through the whole flow *)
let prop_end_to_end =
  QCheck.Test.make ~name:"mapped execution is bit-exact" ~count:10
    QCheck.(make ~print:(fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
      Gen.(pair (int_range 1 3) (oneofl [ 4; 8 ])))
    (fun (muls, trip) ->
      let body =
        List.init muls (fun i ->
            Kernel.Let
              ( Printf.sprintf "t%d" i,
                Kernel.Binop
                  ( Op.Mul,
                    Kernel.Load ("x", Kernel.idx ~shift:i 1),
                    Kernel.Load ("w", Kernel.idx 1) ) ))
        @ [
            Kernel.Store
              ( "y", Kernel.idx 1,
                List.fold_left
                  (fun acc i -> Kernel.Binop (Op.Add, acc, Kernel.Temp (Printf.sprintf "t%d" i)))
                  (Kernel.Iconst 0)
                  (List.init muls (fun i -> i)) );
          ]
      in
      let k = { Kernel.name = "rand"; trip; body; carries = [] } in
      let g = Lower.lower k in
      match
        (Plaid_mapping.Driver.map
           ~algo:(Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.quick)
           ~arch:(Lazy.force st4) ~dfg:g ~seed:5 ())
          .Plaid_mapping.Driver.mapping
      with
      | None -> false
      | Some m -> (
        let spm = Plaid_sim.Spm.of_kernel k ~params:[] ~seed:9 in
        match Plaid_sim.Cycle_sim.verify m spm with Ok _ -> true | Error _ -> false))

let suites =
  [
    ( "spm",
      [
        Alcotest.test_case "roundtrip" `Quick test_spm_roundtrip;
        Alcotest.test_case "bounds" `Quick test_spm_bounds;
        Alcotest.test_case "copy independent" `Quick test_spm_copy_independent;
      ] );
    ( "reference",
      [
        Alcotest.test_case "matches DSL interpreter" `Quick test_reference_matches_kernel_interpreter;
        Alcotest.test_case "carry init" `Quick test_reference_carry_init;
      ] );
    ( "cycle-sim",
      [
        Alcotest.test_case "sumsq on ST" `Quick test_cycle_sim_sumsq_st;
        Alcotest.test_case "sumsq on Plaid" `Quick test_cycle_sim_sumsq_plaid;
        Alcotest.test_case "in-place stencil" `Quick test_cycle_sim_stencil_st;
        Alcotest.test_case "unrolled reduction" `Quick test_cycle_sim_reduction_unrolled;
        Alcotest.test_case "stats" `Quick test_cycle_sim_reports_stats;
        Alcotest.test_case "validator catches tampering" `Quick test_validator_catches_tampering;
        Alcotest.test_case "stats pinned on st_4x4" `Quick test_stats_pinned_st;
        Alcotest.test_case "stats pinned on plaid_2x2" `Quick test_stats_pinned_plaid;
        Alcotest.test_case "stats pinned on a late schedule" `Quick test_stats_pinned_shifted;
        Alcotest.test_case "stats pinned on a faulted fabric" `Quick test_stats_pinned_faulted;
        Alcotest.test_case "wire conflict message" `Quick test_wire_conflict_message;
        Alcotest.test_case "malformed mappings refused" `Quick test_malformed_mappings_refused;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20250705 |]) prop_end_to_end;
      ] );
  ]
