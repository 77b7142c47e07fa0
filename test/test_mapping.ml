(* Tests for plaid_arch + plaid_mapping: architecture invariants, MRRG
   occupancy rules, scheduling, routing, and end-to-end mapping with both
   baseline mappers on the 4x4 spatio-temporal mesh. *)

open Plaid_ir
open Plaid_mapping

let check = Alcotest.check

let st4 = lazy (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st4x4")

(* ------------------------------------------------------------------ arch *)

let test_mesh_counts () =
  let arch = Lazy.force st4 in
  check Alcotest.int "16 FUs" 16 (Array.length arch.Plaid_arch.Arch.fus);
  check Alcotest.int "4 memory FUs" 4 (Array.length arch.Plaid_arch.Arch.mem_fus)

let test_mesh_capacity () =
  let cap = Plaid_arch.Arch.capacity (Lazy.force st4) in
  check Alcotest.int "total" 16 cap.Analysis.total_slots;
  check Alcotest.int "memory" 4 cap.Analysis.memory_slots

let test_fu_supports () =
  let arch = Lazy.force st4 in
  let p = Plaid_arch.Mesh.spatio_temporal_4x4 in
  let mem_fu = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:0 in
  let alu_fu = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:3 in
  check Alcotest.bool "alsu loads" true (Plaid_arch.Arch.fu_supports arch mem_fu Op.Load);
  check Alcotest.bool "alu no loads" false (Plaid_arch.Arch.fu_supports arch alu_fu Op.Load);
  check Alcotest.bool "alu adds" true (Plaid_arch.Arch.fu_supports arch alu_fu Op.Add);
  check Alcotest.bool "port is not fu" false (Plaid_arch.Arch.fu_supports arch (mem_fu + 1) Op.Add)

let test_config_bits_positive () =
  let arch = Lazy.force st4 in
  let c = arch.Plaid_arch.Arch.config in
  check Alcotest.bool "compute bits" true (c.compute_bits = 16 * 12);
  check Alcotest.bool "comm bits substantial" true (c.comm_bits > c.compute_bits)

let test_combinational_loop_rejected () =
  let cfg = { Plaid_arch.Arch.compute_bits = 0; comm_bits = 0; entries = 4; clock_gated = false } in
  let b = Plaid_arch.Arch.builder ~name:"loopy" ~config:cfg () in
  let p1 = Plaid_arch.Arch.add_resource b ~name:"p1" ~kind:Plaid_arch.Arch.Port ~tile:(0, 0) ~area_class:"router_port" in
  let p2 = Plaid_arch.Arch.add_resource b ~name:"p2" ~kind:Plaid_arch.Arch.Port ~tile:(0, 0) ~area_class:"router_port" in
  Plaid_arch.Arch.add_link b ~src:p1 ~dst:p2 ~latency:0;
  Plaid_arch.Arch.add_link b ~src:p2 ~dst:p1 ~latency:0;
  match Plaid_arch.Arch.freeze b with
  | _ -> Alcotest.fail "expected combinational loop rejection"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ mrrg *)

let test_mrrg_fu_exclusive () =
  let arch = Lazy.force st4 in
  let mrrg = Mrrg.create arch ~ii:2 in
  let fu = arch.Plaid_arch.Arch.fus.(0) in
  Mrrg.place_node mrrg ~node:0 ~fu ~slot:0;
  check Alcotest.bool "slot 0 busy" false (Mrrg.fu_free mrrg ~fu ~slot:0);
  check Alcotest.bool "slot 1 free" true (Mrrg.fu_free mrrg ~fu ~slot:1);
  (match Mrrg.place_node mrrg ~node:1 ~fu ~slot:0 with
  | _ -> Alcotest.fail "expected exclusivity"
  | exception Invalid_argument _ -> ());
  Mrrg.unplace_node mrrg ~node:0 ~fu ~slot:0;
  check Alcotest.bool "freed" true (Mrrg.fu_free mrrg ~fu ~slot:0)

let test_mrrg_signal_sharing () =
  let arch = Lazy.force st4 in
  let mrrg = Mrrg.create arch ~ii:2 in
  let res = 1 (* some port *) in
  let s1 = { Mrrg.s_node = 5; s_elapsed = 1 } in
  let s2 = { Mrrg.s_node = 6; s_elapsed = 1 } in
  check Alcotest.bool "free" true (Mrrg.can_use mrrg ~res ~slot:0 s1);
  Mrrg.occupy mrrg ~res ~slot:0 s1;
  check Alcotest.bool "same signal shares" true (Mrrg.can_use mrrg ~res ~slot:0 s1);
  check Alcotest.bool "other signal blocked" false (Mrrg.can_use mrrg ~res ~slot:0 s2);
  Mrrg.occupy mrrg ~res ~slot:0 s1;
  Mrrg.release mrrg ~res ~slot:0 s1;
  check Alcotest.bool "still held (refcount)" false (Mrrg.can_use mrrg ~res ~slot:0 s2);
  Mrrg.release mrrg ~res ~slot:0 s1;
  check Alcotest.bool "released" true (Mrrg.can_use mrrg ~res ~slot:0 s2)

let test_mrrg_overuse () =
  let arch = Lazy.force st4 in
  let mrrg = Mrrg.create arch ~ii:1 in
  let s1 = { Mrrg.s_node = 1; s_elapsed = 1 } in
  let s2 = { Mrrg.s_node = 2; s_elapsed = 1 } in
  check Alcotest.int "no overuse" 0 (Mrrg.overuse mrrg);
  Mrrg.occupy mrrg ~res:1 ~slot:0 s1;
  Mrrg.occupy mrrg ~res:1 ~slot:0 s2;
  check Alcotest.int "one violation" 1 (Mrrg.overuse mrrg);
  check Alcotest.int "presence" 2 (Mrrg.presence mrrg ~res:1 ~slot:0)

(* -------------------------------------------------------------- schedule *)

let saxpy_dfg () =
  Lower.lower
    {
      Kernel.name = "saxpy";
      trip = 16;
      body =
        [
          Kernel.Let ("t", Kernel.Binop (Op.Mul, Kernel.Param "a", Kernel.Load ("x", Kernel.idx 1)));
          Kernel.Store
            ("y", Kernel.idx 1, Kernel.Binop (Op.Add, Kernel.Temp "t", Kernel.Load ("y", Kernel.idx 1)));
        ];
      carries = [];
    }

let sumsq_dfg () =
  Lower.lower
    {
      Kernel.name = "sumsq";
      trip = 16;
      body =
        [
          Kernel.Let
            ("sq", Kernel.Binop (Op.Mul, Kernel.Load ("x", Kernel.idx 1), Kernel.Load ("x", Kernel.idx 1)));
          Kernel.Set_carry ("s", Kernel.Binop (Op.Add, Kernel.Carry "s", Kernel.Temp "sq"));
          Kernel.Store ("out", Kernel.fixed 0, Kernel.Carry "s");
        ];
      carries = [ ("s", 0) ];
    }

let test_schedule_satisfies_edges () =
  let g = saxpy_dfg () in
  let cap = Plaid_arch.Arch.capacity (Lazy.force st4) in
  List.iter
    (fun ii ->
      match Schedule.compute g ~ii ~cap with
      | None -> Alcotest.failf "no schedule at II=%d" ii
      | Some times ->
        Array.iter
          (fun (e : Dfg.edge) ->
            if times.(e.dst) < times.(e.src) + 1 - (e.dist * ii) then
              Alcotest.fail "edge constraint violated")
          g.Dfg.edges)
    [ 1; 2; 3 ]

let test_schedule_pressure () =
  (* 6 loads at II=2 with 4 memory slots: must spread across slots *)
  let b = Dfg.builder "loads" in
  for i = 0 to 5 do
    ignore (Dfg.add_node b ~access:{ array = "a"; offset = i; stride = 0 } Op.Load)
  done;
  let g = Dfg.finish b in
  let cap = { Analysis.total_slots = 16; memory_slots = 4 } in
  match Schedule.compute g ~ii:2 ~cap with
  | None -> Alcotest.fail "expected schedule"
  | Some times ->
    let per_slot = Array.make 2 0 in
    Array.iter (fun t -> per_slot.(t mod 2) <- (per_slot.(t mod 2) + 1)) times;
    check Alcotest.bool "within capacity" true (per_slot.(0) <= 4 && per_slot.(1) <= 4)

let test_slack_bounds () =
  let g = saxpy_dfg () in
  let cap = Plaid_arch.Arch.capacity (Lazy.force st4) in
  match Schedule.compute g ~ii:2 ~cap with
  | None -> Alcotest.fail "no schedule"
  | Some times ->
    for v = 0 to Dfg.n_nodes g - 1 do
      let lo, hi = Schedule.slack g ~times ~ii:2 ~node:v in
      if not (lo <= times.(v) && times.(v) <= hi) then
        Alcotest.failf "current time outside its own slack [%d,%d] for node %d" lo hi v
    done

(* ----------------------------------------------------------------- route *)

let test_route_adjacent () =
  let arch = Lazy.force st4 in
  let p = Plaid_arch.Mesh.spatio_temporal_4x4 in
  let mrrg = Mrrg.create arch ~ii:2 in
  let src = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:0 in
  let dst = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:1 in
  match Route.find mrrg ~src_fu:src ~src_node:0 ~t_src:0 ~dst_fu:dst ~length:1 ~mode:Route.Hard with
  | None -> Alcotest.fail "no route to neighbour"
  | Some (path, _) ->
    (* outreg (elapsed 1) then neighbour inport (elapsed 1) *)
    check Alcotest.int "two wire steps" 2 (List.length path)

let test_route_distance_needs_cycles () =
  let arch = Lazy.force st4 in
  let p = Plaid_arch.Mesh.spatio_temporal_4x4 in
  let mrrg = Mrrg.create arch ~ii:4 in
  let src = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:0 in
  let dst = Plaid_arch.Mesh.fu_of_pe p ~row:3 ~col:3 in
  (* One registered hop per straight run (HyCUBE-style bypass): the corner
     needs an east run and a south run, so two cycles minimum — one is
     impossible however the router pads. *)
  check Alcotest.bool "too short fails" true
    (Route.find mrrg ~src_fu:src ~src_node:0 ~t_src:0 ~dst_fu:dst ~length:1 ~mode:Route.Hard = None);
  check Alcotest.bool "exact works" true
    (Route.find mrrg ~src_fu:src ~src_node:0 ~t_src:0 ~dst_fu:dst ~length:2 ~mode:Route.Hard <> None);
  check Alcotest.bool "padded works" true
    (Route.find mrrg ~src_fu:src ~src_node:0 ~t_src:0 ~dst_fu:dst ~length:6 ~mode:Route.Hard <> None)

let test_route_padding () =
  (* Longer-than-shortest routes pad in registers. *)
  let arch = Lazy.force st4 in
  let p = Plaid_arch.Mesh.spatio_temporal_4x4 in
  let mrrg = Mrrg.create arch ~ii:4 in
  let src = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:0 in
  let dst = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:1 in
  match Route.find mrrg ~src_fu:src ~src_node:0 ~t_src:0 ~dst_fu:dst ~length:4 ~mode:Route.Hard with
  | None -> Alcotest.fail "padding route not found"
  | Some (path, _) -> check Alcotest.bool "path uses >= 4 steps" true (List.length path >= 4)

let test_route_negative_t_src () =
  (* Annealing may retime a node into negative absolute time (its slack
     window is unbounded below for cross-iteration edges); the router must
     normalize the modulo slot instead of indexing a negative cell. *)
  let arch = Lazy.force st4 in
  let p = Plaid_arch.Mesh.spatio_temporal_4x4 in
  let mrrg = Mrrg.create arch ~ii:4 in
  let src = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:0 in
  let dst = Plaid_arch.Mesh.fu_of_pe p ~row:3 ~col:3 in
  match Route.find mrrg ~src_fu:src ~src_node:0 ~t_src:(-5) ~dst_fu:dst ~length:6 ~mode:Route.Hard with
  | None -> Alcotest.fail "route from negative time not found"
  | Some (path, _) ->
    (* occupy/release at the same negative origin must hit the same cells *)
    Route.occupy_path mrrg ~src_node:0 ~t_src:(-5) path;
    check Alcotest.bool "occupied" true (Mrrg.overuse mrrg = 0);
    Route.release_path mrrg ~src_node:0 ~t_src:(-5) path;
    check Alcotest.int "released cleanly" 0
      (let total = ref 0 in
       for r = 0 to Plaid_arch.Arch.n_resources arch - 1 do
         for s = 0 to 3 do
           total := !total + Mrrg.presence mrrg ~res:r ~slot:s
         done
       done;
       !total)

let test_route_self_loop () =
  (* Accumulator feedback at II=1: value circulates every cycle. *)
  let arch = Lazy.force st4 in
  let p = Plaid_arch.Mesh.spatio_temporal_4x4 in
  let mrrg = Mrrg.create arch ~ii:1 in
  let fu = Plaid_arch.Mesh.fu_of_pe p ~row:1 ~col:1 in
  match Route.find mrrg ~src_fu:fu ~src_node:0 ~t_src:0 ~dst_fu:fu ~length:1 ~mode:Route.Hard with
  | None -> Alcotest.fail "self feedback not routable"
  | Some (path, _) -> check Alcotest.int "through outreg only" 1 (List.length path)

let test_route_respects_occupancy () =
  let arch = Lazy.force st4 in
  let p = Plaid_arch.Mesh.spatio_temporal_4x4 in
  let mrrg = Mrrg.create arch ~ii:1 in
  let src = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:0 in
  let dst = Plaid_arch.Mesh.fu_of_pe p ~row:0 ~col:1 in
  (* Block with a foreign signal on every route taken until exhaustion. *)
  let rec burn k =
    if k > 50 then Alcotest.fail "never exhausted"
    else
      match
        Route.find mrrg ~src_fu:src ~src_node:k ~t_src:0 ~dst_fu:dst ~length:1 ~mode:Route.Hard
      with
      | None -> ()
      | Some (path, _) -> Route.occupy_path mrrg ~src_node:k ~t_src:0 path; burn (k + 1)
  in
  burn 1;
  check Alcotest.bool "hard mode eventually refuses" true
    (Route.find mrrg ~src_fu:src ~src_node:9999 ~t_src:0 ~dst_fu:dst ~length:1 ~mode:Route.Hard
     = None)

(* ---------------------------------------------------------- end-to-end *)

let validate_or_fail m =
  match Mapping.validate m with Ok () -> () | Error msg -> Alcotest.failf "invalid mapping: %s" msg

let map_with algo g =
  let arch = Lazy.force st4 in
  let out = Driver.map ~algo ~arch ~dfg:g ~seed:7 () in
  match out.Driver.mapping with
  | None -> Alcotest.failf "mapper failed on %s" g.Dfg.name
  | Some m -> validate_or_fail m; m

let test_sa_maps_saxpy () =
  let m = map_with (Driver.Sa Anneal.quick) (saxpy_dfg ()) in
  check Alcotest.bool "II small" true (m.Mapping.ii <= 3)

let test_sa_maps_sumsq () =
  let m = map_with (Driver.Sa Anneal.quick) (sumsq_dfg ()) in
  check Alcotest.bool "II small" true (m.Mapping.ii <= 3)

let test_pf_maps_saxpy () =
  let m = map_with (Driver.Pf Pathfinder.quick) (saxpy_dfg ()) in
  check Alcotest.bool "II small" true (m.Mapping.ii <= 3)

let test_pf_maps_sumsq () =
  let m = map_with (Driver.Pf Pathfinder.quick) (sumsq_dfg ()) in
  check Alcotest.bool "II small" true (m.Mapping.ii <= 3)

let test_perf_cycles_formula () =
  let m = map_with (Driver.Sa Anneal.quick) (saxpy_dfg ()) in
  check Alcotest.int "cycles" ((m.Mapping.ii * 15) + Mapping.makespan m) (Mapping.perf_cycles m)

let test_best_of_picks_lower_ii () =
  let g = saxpy_dfg () in
  let arch = Lazy.force st4 in
  let out =
    Driver.best_of ~algos:[ Driver.Sa Anneal.quick; Driver.Pf Pathfinder.quick ] ~arch ~dfg:g
      ~seed:3 ()
  in
  match out.Driver.mapping with
  | None -> Alcotest.fail "best_of found nothing"
  | Some m -> validate_or_fail m

(* Mapping determinism: same seed, same mapping. *)
let test_mapping_deterministic () =
  let g = sumsq_dfg () in
  let arch = Lazy.force st4 in
  let run () =
    match (Driver.map ~algo:(Driver.Sa Anneal.quick) ~arch ~dfg:g ~seed:99 ()).Driver.mapping with
    | None -> Alcotest.fail "mapper failed"
    | Some m -> (m.Mapping.ii, Array.to_list m.Mapping.place, Array.to_list m.Mapping.times)
  in
  check
    Alcotest.(triple int (list int) (list int))
    "deterministic" (run ()) (run ())

(* ------------------------------------------------- parallel determinism *)

(* [best_of ~pool] must return bit-identical results for every worker
   count: same mapping (placement, schedule, routes), same MII, same
   attempt count.  Exercised on several suite kernels and two fabrics. *)

let plaid_arch =
  lazy (Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"plaid2x2" ()).Plaid_core.Pcu.arch

let fingerprint (o : Driver.outcome) =
  ( o.Driver.mii,
    o.Driver.attempts,
    Option.map
      (fun (m : Mapping.t) -> (m.Mapping.ii, m.Mapping.times, m.Mapping.place, m.Mapping.routes))
      o.Driver.mapping )

let det_kernels = [ "dwconv"; "atax_u2"; "cholesky_u2" ]

let det_archs () = [ ("st4x4", Lazy.force st4); ("plaid2x2", Lazy.force plaid_arch) ]

let test_best_of_parallel_deterministic () =
  let algos = [ Driver.Sa Anneal.quick; Driver.Pf Pathfinder.quick ] in
  List.iter
    (fun (aname, arch) ->
      List.iter
        (fun k ->
          let dfg = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find k) in
          let seq = fingerprint (Driver.best_of ~algos ~arch ~dfg ~seed:11 ()) in
          List.iter
            (fun size ->
              Plaid_util.Pool.with_pool ~size (fun pool ->
                  let par = fingerprint (Driver.best_of ~pool ~algos ~arch ~dfg ~seed:11 ()) in
                  if par <> seq then
                    Alcotest.failf "best_of diverged on %s/%s with %d workers" aname k size))
            [ 2; 4 ])
        det_kernels)
    (det_archs ())

let test_map_parallel_ii_search_deterministic () =
  (* the speculative II window must agree with the one-at-a-time search *)
  List.iter
    (fun (aname, arch) ->
      List.iter
        (fun k ->
          let dfg = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find k) in
          let algo = Driver.Sa Anneal.quick in
          let seq = fingerprint (Driver.map ~algo ~arch ~dfg ~seed:23 ()) in
          List.iter
            (fun size ->
              Plaid_util.Pool.with_pool ~size (fun pool ->
                  let par = fingerprint (Driver.map ~pool ~algo ~arch ~dfg ~seed:23 ()) in
                  if par <> seq then
                    Alcotest.failf "II search diverged on %s/%s with %d workers" aname k size))
            [ 2; 4 ])
        det_kernels)
    (det_archs ())

let test_best_of_restarts_deterministic () =
  let algos = [ Driver.Sa Anneal.quick; Driver.Pf Pathfinder.quick ] in
  let arch = Lazy.force st4 in
  let dfg = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "dwconv") in
  let seq = fingerprint (Driver.best_of ~restarts:3 ~algos ~arch ~dfg ~seed:5 ()) in
  Plaid_util.Pool.with_pool ~size:4 (fun pool ->
      check Alcotest.bool "restart portfolio identical" true
        (fingerprint (Driver.best_of ~pool ~restarts:3 ~algos ~arch ~dfg ~seed:5 ()) = seq))

(* [best_of] walks its entries in order and bounds each later search below
   the best II so far.  The reference is the unbounded portfolio: every
   entry run in full through [Driver.map], reduced with earliest-wins-ties.
   The two must agree on mapping and attempt count, with and without a
   pool, including when nothing maps at all. *)
let unbounded_best_of ?pool ~restarts ~algos ~arch ~dfg ~seed () =
  let outcomes =
    List.concat
      (List.mapi
         (fun i algo ->
           List.init restarts (fun r ->
               Driver.map ?pool ~algo ~arch ~dfg ~seed:(seed + (i * 7919) + (r * 104729)) ()))
         algos)
  in
  let better (a : Driver.outcome) (b : Driver.outcome) =
    match (a.mapping, b.mapping) with
    | None, _ -> b
    | _, None -> a
    | Some ma, Some mb -> if mb.Mapping.ii < ma.Mapping.ii then b else a
  in
  let best = List.fold_left better (List.hd outcomes) (List.tl outcomes) in
  (* did a later entry beat an earlier mapping, i.e. a bounded search win? *)
  let first_mapped = List.find_opt (fun (o : Driver.outcome) -> o.mapping <> None) outcomes in
  (best, match first_mapped with Some o -> o != best | None -> false)

let test_best_of_matches_unbounded_reduction () =
  let st4 = Lazy.force st4 in
  (* cholesky_u4 has MII 4; at depth 4 no single-restart entry maps *)
  let shallow =
    Plaid_arch.Mesh.build
      { Plaid_arch.Mesh.spatio_temporal_4x4 with config_entries = 4 }
      ~name:"st4x4_depth4"
  in
  let pf = Driver.Pf Pathfinder.quick and sa = Driver.Sa Anneal.quick in
  let cases =
    [ ("gemm_u2", st4); ("atax_u2", st4); ("cholesky_u4", st4); ("cholesky_u4", shallow) ]
  in
  let all_failed = ref false and later_won = ref false in
  List.iter
    (fun (k, arch) ->
      let dfg = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find k) in
      List.iter
        (fun algos ->
          List.iter
            (fun restarts ->
              let run ?pool () =
                let got = Driver.best_of ?pool ~restarts ~algos ~arch ~dfg ~seed:2025 () in
                let want, later =
                  unbounded_best_of ?pool ~restarts ~algos ~arch ~dfg ~seed:2025 ()
                in
                if want.Driver.mapping = None then all_failed := true;
                if later then later_won := true;
                if fingerprint got <> fingerprint want then
                  Alcotest.failf
                    "best_of differs from the unbounded reduction on %s/%s (%s, %d restarts%s)" k
                    arch.Plaid_arch.Arch.name
                    (String.concat ","
                       (List.map (function Driver.Pf _ -> "pf" | Driver.Sa _ -> "sa") algos))
                    restarts
                    (if pool = None then "" else ", pool 2")
              in
              run ();
              Plaid_util.Pool.with_pool ~size:2 (fun pool -> run ~pool ()))
            [ 1; 3 ])
        [ [ pf; sa ]; [ sa; pf ] ])
    cases;
  check Alcotest.bool "the all-fail outcome is covered" true !all_failed;
  check Alcotest.bool "a bounded later entry wins somewhere" true !later_won

(* PathFinder maps gemm_u2 at MII on st_4x4, so SA cannot beat it and must
   never start. *)
let test_best_of_skips_sa_at_mii () =
  let module Metrics = Plaid_obs.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  let counter name = List.assoc name (Metrics.snapshot ()).Metrics.counters in
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let arch = Lazy.force st4 in
      let dfg = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "gemm_u2") in
      let o =
        Driver.best_of ~algos:[ Driver.Pf Pathfinder.default; Driver.Sa Anneal.default ] ~arch
          ~dfg ~seed:2025 ()
      in
      (match o.Driver.mapping with
      | Some m -> check Alcotest.int "mapped at MII" o.Driver.mii m.Mapping.ii
      | None -> Alcotest.fail "gemm_u2 did not map");
      check Alcotest.bool "pathfinder ran" true (counter "driver/ii_attempts" > 0);
      check Alcotest.int "sa/moves" 0 (counter "sa/moves"))

(* [Route_table] sums the penalty over its unrouted-edge set only.  Through
   random releases, routes, undos and retimes, its cost must equal a scan of
   every edge bit for bit.  The reference mirrors the table's running wire
   sum with the same float operations in the same order. *)
let test_route_table_cost_matches_full_scan () =
  let arch = Lazy.force st4 in
  let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "atax_u2") in
  let cap = Plaid_arch.Arch.capacity arch in
  let ii = Analysis.mii g cap + 1 in
  let times =
    match Schedule.compute g ~ii ~cap with Some t -> t | None -> Alcotest.fail "no schedule"
  in
  let rng = Plaid_util.Rng.create 7 in
  let mrrg = Mrrg.create arch ~ii in
  let place =
    match Greedy.initial_place mrrg g ~times ~rng with
    | Some p -> p
    | None -> Alcotest.fail "no initial placement"
  in
  let t = Route_table.create mrrg g ~times ~place in
  let ne = Array.length g.Dfg.edges in
  let wire = ref 0.0 in
  let cost_of i = match Route_table.snapshot_edges t [ i ] with [ (_, _, c) ] -> c | _ -> 0.0 in
  let route i =
    if Route_table.path t i = None && Route_table.route_edge t i then
      if not (Dfg.is_ordering g.Dfg.edges.(i)) then wire := !wire +. cost_of i
  in
  let release i =
    if Route_table.path t i <> None then begin
      wire := !wire -. cost_of i;
      Route_table.release_edge t i
    end
  in
  let full_scan () =
    let penalty = ref 0.0 in
    Array.iteri
      (fun i (e : Dfg.edge) ->
        if Route_table.path t i = None then begin
          let len = times.(e.dst) - times.(e.src) + (e.dist * ii) in
          let shape =
            if len < 1 then 40.0 *. float_of_int (1 - len) else 2.0 *. float_of_int len
          in
          penalty := !penalty +. 1000.0 +. shape
        end)
      g.Dfg.edges;
    !penalty +. !wire
  in
  let slot time = ((time mod ii) + ii) mod ii in
  let retime v =
    let incident = Route_table.incident t v in
    List.iter release incident;
    let t' = times.(v) + Plaid_util.Rng.int rng 5 - 2 in
    if t' <> times.(v) && Mrrg.fu_free mrrg ~fu:place.(v) ~slot:(slot t') then begin
      Mrrg.unplace_node mrrg ~node:v ~fu:place.(v) ~slot:(slot times.(v));
      Mrrg.place_node mrrg ~node:v ~fu:place.(v) ~slot:(slot t');
      times.(v) <- t'
    end;
    List.iter route incident
  in
  let undo i =
    match Route_table.snapshot_edges t [ i ] with
    | [ (_, Some path, c) ] ->
      release i;
      Route_table.restore_edge t i path c;
      wire := !wire +. c
    | _ -> ()
  in
  Route_table.route_all t;
  Array.iteri
    (fun i (e : Dfg.edge) ->
      if (not (Dfg.is_ordering e)) && Route_table.path t i <> None then
        wire := !wire +. cost_of i)
    g.Dfg.edges;
  for step = 1 to 3000 do
    (match Plaid_util.Rng.int rng 4 with
    | 0 -> release (Plaid_util.Rng.int rng ne)
    | 1 -> route (Plaid_util.Rng.int rng ne)
    | 2 -> retime (Plaid_util.Rng.int rng (Dfg.n_nodes g))
    | _ -> undo (Plaid_util.Rng.int rng ne));
    let unrouted = ref 0 in
    for i = 0 to ne - 1 do
      if Route_table.path t i = None then incr unrouted
    done;
    check Alcotest.int (Printf.sprintf "unrouted after step %d" step) !unrouted
      (Route_table.unrouted t);
    if Int64.bits_of_float (Route_table.total_cost t) <> Int64.bits_of_float (full_scan ()) then
      Alcotest.failf "step %d: total_cost %h, full scan %h" step (Route_table.total_cost t)
        (full_scan ())
  done

(* Property: for random small reduction DFGs, SA produces valid mappings. *)
let prop_sa_valid =
  QCheck.Test.make ~name:"SA mappings validate" ~count:12
    QCheck.(make Gen.(pair (int_range 1 4) (int_range 0 2)))
    (fun (muls, extra_loads) ->
      let b = Dfg.builder ~trip:8 "rand" in
      let loads =
        List.init (1 + extra_loads) (fun i ->
            Dfg.add_node b ~access:{ array = "x"; offset = i; stride = 1 } Op.Load)
      in
      let acc = ref (List.hd loads) in
      for _ = 1 to muls do
        let m = Dfg.add_node b ~imms:[ (1, 3) ] Op.Mul in
        Dfg.add_edge b ~src:!acc ~dst:m ~operand:0 ();
        acc := m
      done;
      let st = Dfg.add_node b ~access:{ array = "y"; offset = 0; stride = 1 } Op.Store in
      Dfg.add_edge b ~src:!acc ~dst:st ~operand:0 ();
      List.iteri
        (fun i ld ->
          if i > 0 then begin
            let sink = Dfg.add_node b ~imms:[ (1, 1) ] Op.Add in
            Dfg.add_edge b ~src:ld ~dst:sink ~operand:0 ();
            let st2 = Dfg.add_node b ~access:{ array = "z"; offset = i; stride = 1 } Op.Store in
            Dfg.add_edge b ~src:sink ~dst:st2 ~operand:0 ()
          end)
        loads;
      let g = Dfg.finish b in
      let arch = Lazy.force st4 in
      match (Driver.map ~algo:(Driver.Sa Anneal.quick) ~arch ~dfg:g ~seed:5 ()).Driver.mapping with
      | None -> false
      | Some m -> Mapping.validate m = Ok ())

(* [Anneal_core.try_move] on a real kernel: every rejected or declined
   move leaves the route table, the MRRG and the placement exactly as it
   found them, and a declined move draws no random number. *)
let test_try_move_rolls_back () =
  let arch = Lazy.force st4 in
  let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "atax_u2") in
  let cap = Plaid_arch.Arch.capacity arch in
  let ii = Analysis.mii g cap + 1 in
  let times =
    match Schedule.compute g ~ii ~cap with Some t -> t | None -> Alcotest.fail "no schedule"
  in
  let rng = Plaid_util.Rng.create 7 in
  let mrrg = Mrrg.create arch ~ii in
  let place =
    match Greedy.initial_place mrrg g ~times ~rng with
    | Some p -> p
    | None -> Alcotest.fail "no initial placement"
  in
  let t = Route_table.create mrrg g ~times ~place in
  Route_table.route_all t;
  let ne = Array.length g.Dfg.edges in
  let state () =
    ( Route_table.snapshot_edges t (List.init ne Fun.id),
      Route_table.unrouted t,
      List.init (Plaid_arch.Arch.n_resources arch) (fun res ->
          List.init ii (fun slot ->
              let c = Mrrg.cell mrrg res slot in
              (* a signal's place in the list depends on release order *)
              (c.Mrrg.exec, List.sort compare c.Mrrg.signals))),
      Array.to_list
        (Array.map
           (fun fu -> List.init ii (fun slot -> Mrrg.fu_free mrrg ~fu ~slot))
           arch.Plaid_arch.Arch.fus),
      Array.copy place,
      Array.copy times )
  in
  (* Move [v] to another free FU one whole II later: the slot is the same,
     but every outgoing edge loses II cycles of budget, so the move is
     almost always uphill. *)
  let move_of v =
    let slot = Schedule.slot ~ii times.(v) and fu0 = place.(v) and t0 = times.(v) in
    Array.to_list arch.Plaid_arch.Arch.fus
    |> List.find_opt (fun fu ->
           fu <> fu0
           && Plaid_arch.Arch.fu_supports arch fu (Dfg.node g v).op
           && Mrrg.fu_free mrrg ~fu ~slot)
    |> Option.map (fun fu ->
           let put ~from ~fu ~time =
             Mrrg.unplace_node mrrg ~node:v ~fu:from ~slot;
             Mrrg.place_node mrrg ~node:v ~fu ~slot;
             place.(v) <- fu;
             times.(v) <- time
           in
           ( (fun () -> put ~from:fu0 ~fu ~time:(t0 + ii)),
             fun () -> put ~from:fu ~fu:fu0 ~time:t0 ))
  in
  let rejected = ref 0 and declined = ref 0 in
  for v = 0 to Dfg.n_nodes g - 1 do
    match move_of v with
    | None -> ()
    | Some (apply, undo) ->
      let edges = Route_table.incident t v in
      (* The wire cost is a running float sum (see [Route_table.total_cost]):
         a route-then-release round trip may leave its last bits changed,
         so the total is compared within a tolerance, never bit for bit. *)
      let check_restored what before cost_before =
        if state () <> before then Alcotest.failf "node %d: %s move left state changed" v what;
        let cost = Route_table.total_cost t in
        if Float.abs (cost -. cost_before) > 1e-9 then
          Alcotest.failf "node %d: %s move: total_cost %h, was %h" v what cost cost_before
      in
      let before = state () and cost_before = Route_table.total_cost t in
      let probe = Plaid_util.Rng.copy rng in
      let kept =
        Anneal_core.try_move t ~edges
          ~apply:(fun () ->
            apply ();
            false)
          ~undo ~rng ~temp:1e-9
      in
      check Alcotest.bool "declined move kept" false kept;
      check Alcotest.int64 "declined move draws nothing" (Plaid_util.Rng.bits64 probe)
        (Plaid_util.Rng.bits64 (Plaid_util.Rng.copy rng));
      check_restored "declined" before cost_before;
      incr declined;
      if
        not
          (Anneal_core.try_move t ~edges
             ~apply:(fun () ->
               apply ();
               true)
             ~undo ~rng ~temp:1e-9)
      then begin
        check_restored "rejected" before cost_before;
        incr rejected
      end
  done;
  check Alcotest.bool "some moves declined" true (!declined > 0);
  check Alcotest.bool "some moves rejected" true (!rejected >= 5)

let suites =
  [
    ( "arch",
      [
        Alcotest.test_case "mesh counts" `Quick test_mesh_counts;
        Alcotest.test_case "mesh capacity" `Quick test_mesh_capacity;
        Alcotest.test_case "fu supports" `Quick test_fu_supports;
        Alcotest.test_case "config bits" `Quick test_config_bits_positive;
        Alcotest.test_case "combinational loop rejected" `Quick test_combinational_loop_rejected;
      ] );
    ( "mrrg",
      [
        Alcotest.test_case "fu exclusive" `Quick test_mrrg_fu_exclusive;
        Alcotest.test_case "signal sharing" `Quick test_mrrg_signal_sharing;
        Alcotest.test_case "overuse" `Quick test_mrrg_overuse;
      ] );
    ( "schedule",
      [
        Alcotest.test_case "satisfies edges" `Quick test_schedule_satisfies_edges;
        Alcotest.test_case "pressure smoothing" `Quick test_schedule_pressure;
        Alcotest.test_case "slack bounds" `Quick test_slack_bounds;
      ] );
    ( "route",
      [
        Alcotest.test_case "adjacent" `Quick test_route_adjacent;
        Alcotest.test_case "distance needs cycles" `Quick test_route_distance_needs_cycles;
        Alcotest.test_case "padding" `Quick test_route_padding;
        Alcotest.test_case "negative t_src" `Quick test_route_negative_t_src;
        Alcotest.test_case "self loop" `Quick test_route_self_loop;
        Alcotest.test_case "respects occupancy" `Quick test_route_respects_occupancy;
        Alcotest.test_case "route table cost = full scan" `Quick
          test_route_table_cost_matches_full_scan;
        Alcotest.test_case "rejected move rolls back" `Quick test_try_move_rolls_back;
      ] );
    ( "mappers",
      [
        Alcotest.test_case "sa saxpy" `Quick test_sa_maps_saxpy;
        Alcotest.test_case "sa sumsq" `Quick test_sa_maps_sumsq;
        Alcotest.test_case "pf saxpy" `Quick test_pf_maps_saxpy;
        Alcotest.test_case "pf sumsq" `Quick test_pf_maps_sumsq;
        Alcotest.test_case "perf formula" `Quick test_perf_cycles_formula;
        Alcotest.test_case "best_of" `Quick test_best_of_picks_lower_ii;
        Alcotest.test_case "deterministic" `Quick test_mapping_deterministic;
      ] );
    ( "parallel-determinism",
      [
        Alcotest.test_case "best_of pool 2/4" `Quick test_best_of_parallel_deterministic;
        Alcotest.test_case "II search pool 2/4" `Quick test_map_parallel_ii_search_deterministic;
        Alcotest.test_case "restart portfolio" `Quick test_best_of_restarts_deterministic;
        Alcotest.test_case "bounded walk = unbounded reduction" `Quick
          test_best_of_matches_unbounded_reduction;
        Alcotest.test_case "no annealing after MII" `Quick test_best_of_skips_sa_at_mii;
      ] );
    ("mapping-properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20250705 |]) t) [ prop_sa_valid ]);
  ]
