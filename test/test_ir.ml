(* Tests for plaid_util and plaid_ir: RNG determinism,
   DFG construction/validation, MII analysis, kernel DSL semantics, lowering
   and unrolling correctness (including qcheck properties). *)

open Plaid_ir

let check = Alcotest.check

(* ------------------------------------------------------------------ util *)

let test_rng_determinism () =
  let a = Plaid_util.Rng.create 42 and b = Plaid_util.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Plaid_util.Rng.int a 1000) (Plaid_util.Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Plaid_util.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Plaid_util.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_split_independent () =
  let parent = Plaid_util.Rng.create 1 in
  let child = Plaid_util.Rng.split parent in
  let xs = List.init 20 (fun _ -> Plaid_util.Rng.int parent 1000) in
  let ys = List.init 20 (fun _ -> Plaid_util.Rng.int child 1000) in
  if xs = ys then Alcotest.fail "split stream identical to parent"

let test_rng_shuffle_permutation () =
  let rng = Plaid_util.Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Plaid_util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------- ops *)

let test_op_census () =
  check Alcotest.int "15 ALU ops" 15 (List.length Op.all_compute);
  List.iter
    (fun op ->
      check Alcotest.bool (Op.to_string op) true (Op.is_compute op);
      check Alcotest.bool (Op.to_string op) false (Op.is_memory op))
    Op.all_compute

let test_op_eval_wraps () =
  check Alcotest.int "mul wraps" 0 (Op.eval Op.Mul [| 256; 256 |]);
  check Alcotest.int "add wraps to negative" (-32768) (Op.eval Op.Add [| 32767; 1 |]);
  check Alcotest.int "sub" 2 (Op.eval Op.Sub [| 5; 3 |]);
  check Alcotest.int "select true" 7 (Op.eval Op.Select [| 1; 7; 9 |]);
  check Alcotest.int "select false" 9 (Op.eval Op.Select [| 0; 7; 9 |]);
  check Alcotest.int "min" (-4) (Op.eval Op.Min [| -4; 3 |]);
  check Alcotest.int "lt" 1 (Op.eval Op.Lt [| -4; 3 |])

(* ------------------------------------------------------------------- dfg *)

let simple_chain () =
  (* load -> add(+1) -> store *)
  let b = Dfg.builder ~trip:8 "chain" in
  let ld = Dfg.add_node b ~access:{ array = "a"; offset = 0; stride = 1 } Op.Load in
  let add = Dfg.add_node b ~imms:[ (1, 1) ] Op.Add in
  let st = Dfg.add_node b ~access:{ array = "b"; offset = 0; stride = 1 } Op.Store in
  Dfg.add_edge b ~src:ld ~dst:add ~operand:0 ();
  Dfg.add_edge b ~src:add ~dst:st ~operand:0 ();
  Dfg.finish b

let test_dfg_counts () =
  let g = simple_chain () in
  check Alcotest.int "nodes" 3 (Dfg.n_nodes g);
  check Alcotest.int "compute" 1 (Dfg.n_compute g);
  check Alcotest.int "memory" 2 (Dfg.n_memory g)

let test_dfg_topo () =
  let g = simple_chain () in
  check Alcotest.(list int) "topo" [ 0; 1; 2 ] (Dfg.topo_order g)

let test_dfg_rejects_uncovered_operand () =
  let b = Dfg.builder "bad" in
  let _ = Dfg.add_node b Op.Add in
  match Dfg.finish b with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_dfg_rejects_double_operand () =
  let b = Dfg.builder "bad2" in
  let x = Dfg.add_node b ~access:{ array = "a"; offset = 0; stride = 0 } Op.Load in
  let y = Dfg.add_node b ~imms:[ (0, 1); (1, 2) ] Op.Add in
  Dfg.add_edge b ~src:x ~dst:y ~operand:0 ();
  match Dfg.finish b with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_dfg_rejects_cycle () =
  let b = Dfg.builder "cyc" in
  let x = Dfg.add_node b ~imms:[ (1, 1) ] Op.Add in
  let y = Dfg.add_node b ~imms:[ (1, 1) ] Op.Add in
  Dfg.add_edge b ~src:x ~dst:y ~operand:0 ();
  Dfg.add_edge b ~src:y ~dst:x ~operand:0 ();
  match Dfg.finish b with
  | _ -> Alcotest.fail "expected cycle rejection"
  | exception Invalid_argument _ -> ()

let test_dfg_allows_back_edge () =
  (* Accumulator: add feeds itself at distance 1. *)
  let b = Dfg.builder "accum" in
  let ld = Dfg.add_node b ~access:{ array = "a"; offset = 0; stride = 1 } Op.Load in
  let add = Dfg.add_node b Op.Add in
  Dfg.add_edge b ~src:ld ~dst:add ~operand:0 ();
  Dfg.add_edge b ~dist:1 ~src:add ~dst:add ~operand:1 ();
  let g = Dfg.finish b in
  check Alcotest.int "max dist" 1 (Dfg.max_dist g)

let test_dfg_memory_node_needs_access () =
  let b = Dfg.builder "noaccess" in
  let _ = Dfg.add_node b Op.Load in
  match Dfg.finish b with
  | _ -> Alcotest.fail "expected access requirement"
  | exception Invalid_argument _ -> ()

(* -------------------------------------------------------------- analysis *)

let cap16 = { Analysis.total_slots = 16; memory_slots = 4 }

let test_res_mii () =
  let g = simple_chain () in
  check Alcotest.int "res mii" 1 (Analysis.res_mii g cap16);
  (* 17 compute nodes over 16 slots -> 2 *)
  let b = Dfg.builder "wide" in
  for _ = 1 to 17 do
    ignore (Dfg.add_node b ~imms:[ (0, 1); (1, 2) ] Op.Add)
  done;
  let g = Dfg.finish b in
  check Alcotest.int "res mii total-bound" 2 (Analysis.res_mii g cap16);
  (* 5 memory nodes over 4 memory slots -> 2 *)
  let b = Dfg.builder "memheavy" in
  for i = 0 to 4 do
    ignore (Dfg.add_node b ~access:{ array = "a"; offset = i; stride = 0 } Op.Load)
  done;
  let g = Dfg.finish b in
  check Alcotest.int "res mii memory-bound" 2 (Analysis.res_mii g cap16)

let test_rec_mii_accumulator () =
  let b = Dfg.builder "acc" in
  let add = Dfg.add_node b ~imms:[ (0, 1) ] Op.Add in
  Dfg.add_edge b ~dist:1 ~src:add ~dst:add ~operand:1 ();
  let g = Dfg.finish b in
  check Alcotest.int "self loop rec mii" 1 (Analysis.rec_mii g)

let test_rec_mii_long_cycle () =
  (* Three-op cycle with distance 1: RecMII = 3. *)
  let b = Dfg.builder "cyc3" in
  let a = Dfg.add_node b ~imms:[ (1, 0) ] Op.Add in
  let c = Dfg.add_node b ~imms:[ (1, 0) ] Op.Add in
  let d = Dfg.add_node b ~imms:[ (1, 0) ] Op.Add in
  Dfg.add_edge b ~src:a ~dst:c ~operand:0 ();
  Dfg.add_edge b ~src:c ~dst:d ~operand:0 ();
  Dfg.add_edge b ~dist:1 ~src:d ~dst:a ~operand:0 ();
  let g = Dfg.finish b in
  check Alcotest.int "rec mii 3" 3 (Analysis.rec_mii g);
  (* With distance 3 the same cycle allows II = 1. *)
  let b = Dfg.builder "cyc3d3" in
  let a = Dfg.add_node b ~imms:[ (1, 0) ] Op.Add in
  let c = Dfg.add_node b ~imms:[ (1, 0) ] Op.Add in
  let d = Dfg.add_node b ~imms:[ (1, 0) ] Op.Add in
  Dfg.add_edge b ~src:a ~dst:c ~operand:0 ();
  Dfg.add_edge b ~src:c ~dst:d ~operand:0 ();
  Dfg.add_edge b ~dist:3 ~src:d ~dst:a ~operand:0 ();
  let g = Dfg.finish b in
  check Alcotest.int "rec mii 1" 1 (Analysis.rec_mii g)

let test_asap_respects_edges () =
  let g = simple_chain () in
  let t = Analysis.asap_times g ~ii:1 in
  Array.iter
    (fun (e : Dfg.edge) ->
      if not (t.(e.dst) >= t.(e.src) + 1 - (e.dist * 1)) then
        Alcotest.fail "asap constraint violated")
    g.edges

let test_critical_path () =
  let g = simple_chain () in
  check Alcotest.int "cp" 3 (Analysis.critical_path g)

(* ------------------------------------------------------- kernel + lower *)

(* A small saxpy-like kernel used across the tests:
   y[i] = a * x[i] + y[i] *)
let saxpy trip =
  {
    Kernel.name = "saxpy";
    trip;
    body =
      [
        Kernel.Let ("t", Kernel.Binop (Op.Mul, Kernel.Param "a", Kernel.Load ("x", Kernel.idx 1)));
        Kernel.Store
          ("y", Kernel.idx 1, Kernel.Binop (Op.Add, Kernel.Temp "t", Kernel.Load ("y", Kernel.idx 1)));
      ];
    carries = [];
  }

(* Reduction: s += x[i] * x[i]; result stored each iteration. *)
let sumsq trip =
  {
    Kernel.name = "sumsq";
    trip;
    body =
      [
        Kernel.Let ("sq", Kernel.Binop (Op.Mul, Kernel.Load ("x", Kernel.idx 1), Kernel.Load ("x", Kernel.idx 1)));
        Kernel.Set_carry ("s", Kernel.Binop (Op.Add, Kernel.Carry "s", Kernel.Temp "sq"));
        Kernel.Store ("out", Kernel.fixed 0, Kernel.Carry "s");
      ];
    carries = [ ("s", 0) ];
  }

let test_kernel_interpret_saxpy () =
  let k = saxpy 4 in
  let mem = Kernel.memory_for k ~seed:5 in
  let x = Hashtbl.find mem "x" and y = Hashtbl.find mem "y" in
  let expected = Array.init 4 (fun i -> Op.eval Op.Add [| Op.eval Op.Mul [| 3; x.(i) |]; y.(i) |]) in
  Kernel.interpret k ~params:[ ("a", 3) ] mem;
  check Alcotest.(array int) "saxpy result" expected (Array.sub (Hashtbl.find mem "y") 0 4)

let test_kernel_carry_staging () =
  (* Carry reads must see the previous iteration's value even after Set_carry. *)
  let k =
    {
      Kernel.name = "stage";
      trip = 3;
      body =
        [
          Kernel.Set_carry ("c", Kernel.Binop (Op.Add, Kernel.Carry "c", Kernel.Iconst 1));
          Kernel.Store ("o", Kernel.idx 1, Kernel.Carry "c");
        ];
      carries = [ ("c", 100) ];
    }
  in
  let mem = Kernel.memory_for k ~seed:1 in
  Kernel.interpret k ~params:[] mem;
  (* stores see pre-update carry: 100, 101, 102 *)
  check Alcotest.(array int) "staged" [| 100; 101; 102 |] (Array.sub (Hashtbl.find mem "o") 0 3)

let test_lower_saxpy_shape () =
  let g = Lower.lower (saxpy 8) in
  (* loads x, y; param a; mul; add; store *)
  check Alcotest.int "nodes" 6 (Dfg.n_nodes g);
  check Alcotest.int "compute" 2 (Dfg.n_compute g);
  check Alcotest.int "memory" 3 (Dfg.n_memory g)

let test_lower_cse_shares_loads () =
  let g = Lower.lower (sumsq 8) in
  (* x[i] loaded once despite two syntactic uses *)
  let loads =
    Array.to_list g.Dfg.nodes |> List.filter (fun (n : Dfg.node) -> n.op = Op.Load) |> List.length
  in
  check Alcotest.int "one load" 1 loads

let test_lower_carry_back_edge () =
  let g = Lower.lower (sumsq 8) in
  (* Two carry reads (the accumulation and the store) -> two back edges. *)
  let back = Array.to_list g.Dfg.edges |> List.filter (fun (e : Dfg.edge) -> e.dist = 1) in
  check Alcotest.int "back edges" 2 (List.length back);
  check Alcotest.int "rec mii" 1 (Analysis.rec_mii g)

let test_lower_constant_folding () =
  let k =
    {
      Kernel.name = "fold";
      trip = 2;
      body =
        [
          Kernel.Store
            ( "o", Kernel.idx 1,
              Kernel.Binop
                (Op.Add, Kernel.Load ("x", Kernel.idx 1), Kernel.Binop (Op.Mul, Kernel.Iconst 3, Kernel.Iconst 4)) );
        ];
      carries = [];
    }
  in
  let g = Lower.lower k in
  (* mul of constants folds into an immediate of the add *)
  check Alcotest.int "compute" 1 (Dfg.n_compute g);
  let add = Array.to_list g.Dfg.nodes |> List.find (fun (n : Dfg.node) -> n.op = Op.Add) in
  check Alcotest.(list (pair int int)) "imm" [ (1, 12) ] add.imms

(* DFG reference interpreter is in plaid_sim; here we cross-check lowering by
   unrolling: unroll must preserve kernel semantics exactly. *)
let run_kernel k params seed =
  let mem = Kernel.memory_for k ~seed in
  Kernel.interpret k ~params mem;
  let dump = Hashtbl.fold (fun name a acc -> (name, Array.copy a) :: acc) mem [] in
  List.sort compare dump

let test_unroll_preserves_saxpy () =
  let k = saxpy 8 in
  List.iter
    (fun u ->
      check
        Alcotest.(list (pair string (array int)))
        (Printf.sprintf "u%d" u) (run_kernel k [ ("a", 3) ] 9)
        (run_kernel (Unroll.apply k u) [ ("a", 3) ] 9))
    [ 1; 2; 4 ]

let test_unroll_preserves_reduction () =
  let k = sumsq 12 in
  List.iter
    (fun u ->
      check
        Alcotest.(list (pair string (array int)))
        (Printf.sprintf "u%d" u) (run_kernel k [] 13)
        (run_kernel (Unroll.apply k u) [] 13))
    [ 2; 3; 4; 6 ]

let test_unroll_rejects_bad_factor () =
  match Unroll.apply (saxpy 8) 3 with
  | _ -> Alcotest.fail "expected divisibility error"
  | exception Invalid_argument _ -> ()

let test_unroll_scales_counts () =
  let g1 = Lower.lower (saxpy 8) in
  let g2 = Lower.lower (Unroll.apply (saxpy 8) 2) in
  check Alcotest.int "trip halves" ((g1 : Dfg.t).trip / 2) (g2 : Dfg.t).trip;
  check Alcotest.bool "more nodes" true (Dfg.n_nodes g2 > Dfg.n_nodes g1)

(* ------------------------------------------------------------ properties *)

let random_reduction_kernel =
  (* Random-ish kernels: chain of binops over loads with one reduction. *)
  QCheck.make ~print:(fun (ops, trip) ->
      Printf.sprintf "ops=[%s] trip=%d" (String.concat ";" (List.map Op.to_string ops)) trip)
    QCheck.Gen.(
      pair
        (list_size (int_range 1 6) (oneofl [ Op.Add; Op.Sub; Op.Mul; Op.Min; Op.Max; Op.Xor ]))
        (oneofl [ 4; 6; 12 ]))

let kernel_of_ops (ops, trip) =
  let expr =
    List.fold_left
      (fun acc op -> Kernel.Binop (op, acc, Kernel.Load ("x", Kernel.idx 1)))
      (Kernel.Load ("w", Kernel.idx 1))
      ops
  in
  {
    Kernel.name = "rand";
    trip;
    body =
      [
        Kernel.Set_carry ("s", Kernel.Binop (Op.Add, Kernel.Carry "s", expr));
        Kernel.Store ("o", Kernel.fixed 0, Kernel.Carry "s");
      ];
    carries = [ ("s", 0) ];
  }

let prop_unroll_semantics =
  QCheck.Test.make ~name:"unroll preserves semantics" ~count:60 random_reduction_kernel
    (fun input ->
      let k = kernel_of_ops input in
      let factors = List.filter (fun u -> k.Kernel.trip mod u = 0) [ 2; 3; 4 ] in
      List.for_all
        (fun u -> run_kernel k [] 21 = run_kernel (Unroll.apply k u) [] 21)
        factors)

let prop_lower_valid =
  QCheck.Test.make ~name:"lowered DFGs validate and have RecMII 1" ~count:60
    random_reduction_kernel (fun input ->
      let k = kernel_of_ops input in
      let g = Lower.lower k in
      Dfg.n_nodes g > 0 && Analysis.rec_mii g >= 1 && List.length (Dfg.topo_order g) = Dfg.n_nodes g)

let suites =
  [
    ( "util",
      [
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng split" `Quick test_rng_split_independent;
        Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
      ] );
    ( "op",
      [
        Alcotest.test_case "census" `Quick test_op_census;
        Alcotest.test_case "eval wraps 16-bit" `Quick test_op_eval_wraps;
      ] );
    ( "dfg",
      [
        Alcotest.test_case "counts" `Quick test_dfg_counts;
        Alcotest.test_case "topo order" `Quick test_dfg_topo;
        Alcotest.test_case "rejects uncovered operand" `Quick test_dfg_rejects_uncovered_operand;
        Alcotest.test_case "rejects doubly-covered operand" `Quick test_dfg_rejects_double_operand;
        Alcotest.test_case "rejects distance-0 cycle" `Quick test_dfg_rejects_cycle;
        Alcotest.test_case "allows back edge" `Quick test_dfg_allows_back_edge;
        Alcotest.test_case "memory node needs access" `Quick test_dfg_memory_node_needs_access;
      ] );
    ( "analysis",
      [
        Alcotest.test_case "res mii" `Quick test_res_mii;
        Alcotest.test_case "rec mii accumulator" `Quick test_rec_mii_accumulator;
        Alcotest.test_case "rec mii long cycle" `Quick test_rec_mii_long_cycle;
        Alcotest.test_case "asap respects edges" `Quick test_asap_respects_edges;
        Alcotest.test_case "critical path" `Quick test_critical_path;
      ] );
    ( "kernel",
      [
        Alcotest.test_case "interpret saxpy" `Quick test_kernel_interpret_saxpy;
        Alcotest.test_case "carry staging" `Quick test_kernel_carry_staging;
      ] );
    ( "lower",
      [
        Alcotest.test_case "saxpy shape" `Quick test_lower_saxpy_shape;
        Alcotest.test_case "cse shares loads" `Quick test_lower_cse_shares_loads;
        Alcotest.test_case "carry back edge" `Quick test_lower_carry_back_edge;
        Alcotest.test_case "constant folding" `Quick test_lower_constant_folding;
      ] );
    ( "unroll",
      [
        Alcotest.test_case "preserves saxpy" `Quick test_unroll_preserves_saxpy;
        Alcotest.test_case "preserves reduction" `Quick test_unroll_preserves_reduction;
        Alcotest.test_case "rejects bad factor" `Quick test_unroll_rejects_bad_factor;
        Alcotest.test_case "scales counts" `Quick test_unroll_scales_counts;
      ] );
    ( "ir-properties",
      List.map (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20250705 |]) t) [ prop_unroll_semantics; prop_lower_valid ] );
  ]
