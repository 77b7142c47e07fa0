(* Tests for plaid_core: motif matching, Algorithm 1, templates, the PCU
   architecture, the hierarchical mapper (Algorithm 2), and domain
   specialization. *)

open Plaid_ir
open Plaid_core

let check = Alcotest.check

(* A DFG with a clean unicast chain and a fan-in, all compute ops fed by
   immediates so motif structure is isolated from memory concerns. *)
let motif_playground () =
  let b = Dfg.builder ~trip:4 "play" in
  let ld = Dfg.add_node b ~access:{ array = "x"; offset = 0; stride = 1 } Op.Load in
  (* unicast chain: a -> c -> d *)
  let a = Dfg.add_node b ~imms:[ (1, 1) ] Op.Add in
  let c = Dfg.add_node b ~imms:[ (1, 2) ] Op.Mul in
  let d = Dfg.add_node b ~imms:[ (1, 3) ] Op.Sub in
  Dfg.add_edge b ~src:ld ~dst:a ~operand:0 ();
  Dfg.add_edge b ~src:a ~dst:c ~operand:0 ();
  Dfg.add_edge b ~src:c ~dst:d ~operand:0 ();
  (* fan-in: e, f -> g *)
  let e = Dfg.add_node b ~imms:[ (1, 1) ] Op.Add in
  let f = Dfg.add_node b ~imms:[ (1, 1) ] Op.Add in
  let g = Dfg.add_node b Op.Min in
  Dfg.add_edge b ~src:ld ~dst:e ~operand:0 ();
  Dfg.add_edge b ~src:ld ~dst:f ~operand:0 ();
  Dfg.add_edge b ~src:e ~dst:g ~operand:0 ();
  Dfg.add_edge b ~src:f ~dst:g ~operand:1 ();
  let st = Dfg.add_node b ~access:{ array = "y"; offset = 0; stride = 1 } Op.Store in
  Dfg.add_edge b ~src:d ~dst:st ~operand:0 ();
  let st2 = Dfg.add_node b ~access:{ array = "z"; offset = 0; stride = 1 } Op.Store in
  Dfg.add_edge b ~src:g ~dst:st2 ~operand:0 ();
  (Dfg.finish b, (a, c, d), (e, f, g))

(* ----------------------------------------------------------------- motif *)

let test_motif_unicast_matches () =
  let g, (a, c, d), _ = motif_playground () in
  let m = { Motif.kind = Motif.Unicast; n1 = a; n2 = c; n3 = d } in
  check Alcotest.bool "matches" true (Motif.matches g m)

let test_motif_fan_in_matches () =
  let g, _, (e, f, gg) = motif_playground () in
  let m = { Motif.kind = Motif.Fan_in; n1 = e; n2 = gg; n3 = f } in
  check Alcotest.bool "matches" true (Motif.matches g m)

let test_motif_rejects_memory () =
  let g, (a, c, _), _ = motif_playground () in
  (* node 0 is the load *)
  let m = { Motif.kind = Motif.Unicast; n1 = 0; n2 = a; n3 = c } in
  check Alcotest.bool "memory node not motif material" false (Motif.matches g m)

let test_motif_of_nodes_canonicalizes () =
  let g, (a, c, d), _ = motif_playground () in
  match Motif.of_nodes g d a c with
  | None -> Alcotest.fail "no motif found"
  | Some m ->
    check Alcotest.string "kind" "unicast" (Motif.kind_to_string m.Motif.kind);
    check Alcotest.(list int) "ordered" [ a; c; d ] (Motif.nodes m)

let test_motif_internal_edges () =
  let g, (a, c, d), _ = motif_playground () in
  let m = { Motif.kind = Motif.Unicast; n1 = a; n2 = c; n3 = d } in
  check Alcotest.int "two internal edges" 2 (List.length (Motif.internal_edges g m))

(* ------------------------------------------------------------- motif gen *)

let test_motif_gen_finds_both () =
  let g, _, _ = motif_playground () in
  let h = Motif_gen.generate ~rng:(Plaid_util.Rng.create 5) g in
  check Alcotest.int "two motifs" 2 (Array.length h.Motif_gen.motifs);
  check Alcotest.int "covers all six compute nodes" 6 (Motif_gen.covered_compute g h);
  (match Motif_gen.check g h with
  | Ok () -> ()
  | Error m -> Alcotest.fail m)

let test_motif_gen_improves_on_greedy () =
  (* across the suite, iterative regeneration never loses to greedy *)
  List.iter
    (fun e ->
      let g = Plaid_workloads.Suite.dfg e in
      let greedy = Motif_gen.greedy g in
      let full = Motif_gen.generate ~rng:(Plaid_util.Rng.create 3) g in
      if Array.length full.Motif_gen.motifs < Array.length greedy.Motif_gen.motifs then
        Alcotest.failf "%s: full cover worse than greedy" (Plaid_workloads.Suite.name e))
    Plaid_workloads.Suite.table2

let prop_motif_gen_valid =
  QCheck.Test.make ~name:"motif covers are structurally valid" ~count:20
    QCheck.(make Gen.(int_range 0 1000))
    (fun seed ->
      List.for_all
        (fun e ->
          let g = Plaid_workloads.Suite.dfg e in
          let h = Motif_gen.generate ~rng:(Plaid_util.Rng.create seed) g in
          Motif_gen.check g h = Ok ())
        [ Plaid_workloads.Suite.find "gemm_u2"; Plaid_workloads.Suite.find "conv3x3";
          Plaid_workloads.Suite.find "jacobi_u2" ])

(* ------------------------------------------------------------- templates *)

let test_templates_nonempty_and_legal () =
  List.iter
    (fun kind ->
      let ts = Templates.for_kind kind in
      check Alcotest.bool (Motif.kind_to_string kind) true (List.length ts > 0);
      List.iter
        (fun (t : Templates.t) ->
          (* ALU assignment is a permutation *)
          let sorted = List.sort compare (Array.to_list t.alu_of) in
          check Alcotest.(list int) "permutation" [ 0; 1; 2 ] sorted;
          (* offsets respect intra-motif dependencies *)
          let dep (p, c) =
            if t.offset.(c) < t.offset.(p) + 1 then Alcotest.fail "offset violates dependency"
          in
          (match kind with
          | Motif.Fan_out -> List.iter dep [ (0, 1); (0, 2) ]
          | Motif.Fan_in -> List.iter dep [ (0, 1); (2, 1) ]
          | Motif.Unicast -> List.iter dep [ (0, 1); (1, 2) ]);
          (* anchored: earliest node at offset zero *)
          check Alcotest.int "anchored" 0 (Array.fold_left min 9 t.offset))
        ts)
    [ Motif.Fan_out; Motif.Fan_in; Motif.Unicast ]

let test_templates_strict_subset () =
  List.iter
    (fun kind ->
      let strict = Templates.strict kind in
      check Alcotest.bool "strict nonempty" true (List.length strict > 0);
      List.iter
        (fun (t : Templates.t) ->
          check Alcotest.(array int) "in order" [| 0; 1; 2 |] t.Templates.alu_of)
        strict)
    [ Motif.Fan_out; Motif.Fan_in; Motif.Unicast ]

(* ------------------------------------------------------------------ pcu *)

let plaid2 = lazy (Pcu.build ~rows:2 ~cols:2 ~name:"plaid2x2" ())

let test_pcu_structure () =
  let p = Lazy.force plaid2 in
  check Alcotest.int "4 PCUs" 4 (Array.length p.Pcu.pcus);
  check Alcotest.int "16 FUs" 16 (Pcu.n_fus p);
  check Alcotest.int "4 memory FUs" 4 (Array.length p.Pcu.arch.Plaid_arch.Arch.mem_fus)

let test_pcu_of_fu () =
  let p = Lazy.force plaid2 in
  Array.iteri
    (fun i pcu ->
      Array.iter
        (fun alu -> check Alcotest.(option int) "alu owner" (Some i) (Pcu.pcu_of_fu p alu))
        pcu.Pcu.alus;
      check Alcotest.(option int) "alsu owner" (Some i) (Pcu.pcu_of_fu p pcu.Pcu.alsu))
    p.Pcu.pcus

let test_pcu_3x3_interior_no_memory () =
  let p = Pcu.build ~rows:3 ~cols:3 ~name:"plaid3x3" () in
  (* 8 edge PCUs have scratchpad access, the centre one does not *)
  check Alcotest.int "8 memory FUs" 8 (Array.length p.Pcu.arch.Plaid_arch.Arch.mem_fus)

let test_pcu_config_bits_near_paper () =
  let p = Lazy.force plaid2 in
  let per_pcu = Plaid_arch.Arch.config_bits_per_entry p.Pcu.arch / 4 in
  if per_pcu < 90 || per_pcu > 220 then
    Alcotest.failf "config bits per PCU %d too far from the paper's 120" per_pcu

let test_pcu_local_routes_cheap () =
  (* intra-PCU ALU-to-ALU takes one cycle; inter-PCU takes two *)
  let p = Lazy.force plaid2 in
  let mrrg = Plaid_mapping.Mrrg.create p.Pcu.arch ~ii:4 in
  let pcu0 = p.Pcu.pcus.(0) and pcu1 = p.Pcu.pcus.(1) in
  let route src dst len =
    Plaid_mapping.Route.find mrrg ~src_fu:src ~src_node:0 ~t_src:0 ~dst_fu:dst ~length:len
      ~mode:Plaid_mapping.Route.Hard
  in
  check Alcotest.bool "local 1 cycle" true (route pcu0.Pcu.alus.(0) pcu0.Pcu.alus.(2) 1 <> None);
  check Alcotest.bool "remote needs 2" true (route pcu0.Pcu.alus.(0) pcu1.Pcu.alus.(0) 1 = None);
  check Alcotest.bool "remote 2 cycles" true (route pcu0.Pcu.alus.(0) pcu1.Pcu.alus.(0) 2 <> None)

let test_pcu_bypass () =
  (* adjacent ALUs are directly wired: a length-1 route with an empty path *)
  let p = Lazy.force plaid2 in
  let mrrg = Plaid_mapping.Mrrg.create p.Pcu.arch ~ii:2 in
  let pcu0 = p.Pcu.pcus.(0) in
  match
    Plaid_mapping.Route.find mrrg ~src_fu:pcu0.Pcu.alus.(0) ~src_node:0 ~t_src:0
      ~dst_fu:pcu0.Pcu.alus.(1) ~length:1 ~mode:Plaid_mapping.Route.Hard
  with
  | Some ([], _) -> ()
  | Some (path, _) ->
    check Alcotest.bool "bypass may also route via local router" true (List.length path > 0)
  | None -> Alcotest.fail "no route between adjacent ALUs"

(* Hier_mapper's II-1 port bound rests on this: walking links backwards
   from a PCU's ALUs, and stopping at those ALUs (a motif's members at II 1)
   and at the PCU's global-to-local legs, reaches no other functional unit.
   So every value from outside enters through one of the legs. *)
let check_outside_enters_by_legs name (p : Pcu.t) =
  let a = p.Pcu.arch in
  let n = Plaid_arch.Arch.n_resources a in
  Array.iter
    (fun (u : Pcu.pcu) ->
      let prefix = Printf.sprintf "pcu%d_%d.lr_from_gr" u.row u.col in
      let legs =
        List.filter
          (fun r -> String.starts_with ~prefix (Plaid_arch.Arch.resource a r).rname)
          (List.init n Fun.id)
      in
      check Alcotest.int (name ^ " " ^ prefix) Pcu.global_in_legs (List.length legs);
      let stop r = Array.mem r u.alus || List.mem r legs in
      let seen = Array.make n false in
      let rec visit r =
        if not seen.(r) then begin
          seen.(r) <- true;
          List.iter
            (fun (src, _) ->
              if not (stop src) then begin
                let res = Plaid_arch.Arch.resource a src in
                (match res.kind with
                | Plaid_arch.Arch.Fu _ ->
                  Alcotest.failf "%s: %s reaches pcu%d_%d's ALUs around its legs" name
                    res.rname u.row u.col
                | _ -> ());
                visit src
              end)
            a.Plaid_arch.Arch.in_links.(r)
        end
      in
      Array.iter visit u.alus)
    p.Pcu.pcus

let test_pcu_outside_enters_by_legs () =
  List.iter
    (fun (name, p) -> check_outside_enters_by_legs name (Lazy.force p))
    [ ("plaid_2x2", plaid2);
      ("plaid_3x3", lazy (Pcu.build ~rows:3 ~cols:3 ~name:"plaid_3x3" ()));
      ("no bypass", lazy (Pcu.build ~bypass:false ~rows:2 ~cols:2 ~name:"plaid_nobypass" ()));
      ("plaid_ml", lazy (Specialize.plaid_ml ())) ]

(* ------------------------------------------------------------ hier mapper *)

let test_hier_maps_suite_sample () =
  let p = Lazy.force plaid2 in
  List.iter
    (fun name ->
      let e = Plaid_workloads.Suite.find name in
      let g = Plaid_workloads.Suite.dfg e in
      match
        (Hier_mapper.map ~params:Hier_mapper.quick ~plaid:p ~seed:5 g).Hier_mapper.mapping
      with
      | None -> Alcotest.failf "hier mapper failed on %s" name
      | Some m -> (
        match Plaid_mapping.Mapping.validate m with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: %s" name msg))
    [ "gemm_u2"; "conv2x2"; "jacobi"; "dwconv" ]

let test_hier_deterministic () =
  let p = Lazy.force plaid2 in
  let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "gemm_u2") in
  let run () =
    match (Hier_mapper.map ~params:Hier_mapper.quick ~plaid:p ~seed:9 g).Hier_mapper.mapping with
    | Some m -> (m.Plaid_mapping.Mapping.ii, Array.to_list m.Plaid_mapping.Mapping.place)
    | None -> Alcotest.fail "mapping failed"
  in
  check Alcotest.(pair int (list int)) "deterministic" (run ()) (run ())

let test_hier_respects_mii () =
  let p = Lazy.force plaid2 in
  let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "seidel") in
  let out = Hier_mapper.map ~params:Hier_mapper.quick ~plaid:p ~seed:5 g in
  match out.Hier_mapper.mapping with
  | None -> Alcotest.fail "seidel failed"
  | Some m ->
    check Alcotest.bool "II >= RecMII" true
      (m.Plaid_mapping.Mapping.ii >= Plaid_ir.Analysis.rec_mii g)

(* A unicast motif a -> m -> c whose members read [outside] distinct loads;
   one load feeds two operands, and a loop-carried read still counts. *)
let port_bound_case outside =
  let b = Dfg.builder ~trip:4 "ports" in
  let load i = Dfg.add_node b ~access:{ array = "x"; offset = i; stride = 1 } Op.Load in
  let l1 = load 0 and l2 = load 1 in
  let a = Dfg.add_node b Op.Add in
  let m = Dfg.add_node b Op.Mul in
  let c = Dfg.add_node b ~imms:[ (1, 3) ] Op.Sub in
  Dfg.add_edge b ~src:l1 ~dst:a ~operand:0 ();
  Dfg.add_edge b ~src:l2 ~dst:a ~operand:1 ();
  Dfg.add_edge b ~src:a ~dst:m ~operand:0 ();
  if outside = 3 then Dfg.add_edge b ~dist:1 ~src:(load 2) ~dst:m ~operand:1 ()
  else Dfg.add_edge b ~src:l1 ~dst:m ~operand:1 ();
  Dfg.add_edge b ~src:m ~dst:c ~operand:0 ();
  let st = Dfg.add_node b ~access:{ array = "y"; offset = 0; stride = 1 } Op.Store in
  Dfg.add_edge b ~src:c ~dst:st ~operand:0 ();
  let g = Dfg.finish b in
  let motif = { Motif.kind = Motif.Unicast; n1 = a; n2 = m; n3 = c } in
  check Alcotest.bool "unicast motif" true (Motif.matches g motif);
  let owner = Array.init (Dfg.n_nodes g) (fun v -> if List.mem v (Motif.nodes motif) then 0 else -1) in
  (g, { Motif_gen.motifs = [| motif |]; owner })

let test_hier_port_bound () =
  let admits outside ii =
    let g, hier = port_bound_case outside in
    Hier_mapper.port_bound_admits g hier ~ii
  in
  check Alcotest.bool "3 outside values at II 1" false (admits 3 1);
  check Alcotest.bool "2 outside values at II 1" true (admits 2 1);
  check Alcotest.bool "3 outside values at II 2" true (admits 3 2);
  check Alcotest.bool "2 outside values at II 2" true (admits 2 2)

(* Mapfile digests recorded before the port bound existed, with default
   parameters: skipping a bound-rejected II must leave every mapping
   byte-identical.  gesummv_u2 and gramsc_u4 were recorded before the
   annealing transaction was shared with the SA mapper; they change if a
   declined motif move skips its route-and-release round trip (see
   [Route_table.total_cost] on why that round trip shows in the bytes).
   seidel and bicg_u4 anneal and fail IIs before they map: seidel fails
   II 5 under default parameters, and quick bicg_u4 fails II 6 with one
   schedule and II 7 with two, so they change if an II's RNG stream stops
   continuing the failed IIs' draws. *)
let test_hier_golden_mapfiles () =
  let plaid_2x2 = Pcu.build ~rows:2 ~cols:2 ~name:"plaid_2x2" () in
  let plaid_3x3 = Pcu.build ~rows:3 ~cols:3 ~name:"plaid_3x3" () in
  let dse_plaid3 =
    let space = Option.get (Plaid_dse.Space.find_preset "paper") in
    let c =
      List.find
        (fun c -> Plaid_dse.Space.name c = "plaid3x3_c16_spm16")
        space.Plaid_dse.Space.candidates
    in
    Option.get (Plaid_dse.Space.build c).Plaid_dse.Space.pcu
  in
  let mapfile kernel plaid seed params =
    let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find kernel) in
    match (Hier_mapper.map ~params ~plaid ~seed g).Hier_mapper.mapping with
    | None -> Alcotest.failf "%s: unmapped" kernel
    | Some m -> Plaid_mapping.Mapfile.to_string m
  in
  (* three of the Table-2 suite's longest hier anneals, pinned by one
     digest over their mapfiles in this order *)
  check Alcotest.string "atax_u4 + gramsc_u4 + cholesky_u2" "c5f66c3911b6c7517c133381a8953ace"
    (Digest.to_hex
       (Digest.string
          (String.concat ""
             (List.map
                (fun kernel -> mapfile kernel plaid_2x2 2025 Hier_mapper.default)
                [ "atax_u4"; "gramsc_u4"; "cholesky_u2" ]))));
  List.iter
    (fun (kernel, plaid, seed, params, want) ->
      check Alcotest.string kernel want
        (Digest.to_hex (Digest.string (mapfile kernel plaid seed params))))
    Hier_mapper.
      [ ("jacobi", plaid_2x2, 2025, default, "80f732f9d9e9f96eeed7497da91d4b0a");
        ("seidel_u2", plaid_3x3, 2025, default, "4664044e20ed12f4dadab8789d435c19");
        (* the seed Plaid_dse.Eval derives for this candidate under campaign
           seed 2025 *)
        ("dwconv", dse_plaid3, 1258643394961280375, default, "3bc4a2582d22fe68f9dd856c9191abd3");
        ("gesummv_u2", plaid_2x2, 2025, default, "83137ff08244aa49bdca3bd01c9acfdc");
        ("gramsc_u4", plaid_2x2, 2025, default, "1e155b284a739a35d3107754bbdef55c");
        ("seidel", plaid_2x2, 2025, default, "feaa108d684e60e0052b39fcdb79350a");
        ("bicg_u4", plaid_2x2, 2025, quick, "c1fca09f90acad5f89dfefd3fb3825e1") ]

(* An II the port bound rejects is recorded, but never annealed. *)
let test_hier_skips_rejected_ii () =
  let p = Lazy.force plaid2 in
  let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "jacobi") in
  let hier = Hier_mapper.default_hier ~seed:2025 g in
  let module E = Plaid_mapping.Explain in
  E.reset ();
  E.set_enabled true;
  let attempts =
    Fun.protect
      ~finally:(fun () ->
        E.set_enabled false;
        E.reset ())
      (fun () ->
        ignore (Hier_mapper.map_hier ~params:Hier_mapper.quick ~plaid:p ~hier ~seed:2025 g);
        E.attempts ())
  in
  let rejected =
    List.filter
      (fun (at : E.attempt) -> not (Hier_mapper.port_bound_admits g hier ~ii:at.at_ii))
      attempts
  in
  check Alcotest.bool "jacobi's II 1 is rejected" true (rejected <> []);
  List.iter
    (fun (at : E.attempt) ->
      check Alcotest.bool "not mapped" false at.at_mapped;
      check Alcotest.int (Printf.sprintf "II %d iterations" at.at_ii) 0 at.at_iterations;
      check Alcotest.bool "port-bound phase" true
        (List.exists (fun (ph : E.phase) -> ph.ph_name = "port-bound") at.at_phases))
    rejected

(* Hier attempts run through the driver's one II search, so they count in
   the driver/* metrics: jacobi's II 1 is port-bound and II 2 maps. *)
let test_hier_driver_counters () =
  let module Metrics = Plaid_obs.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  let counter name = List.assoc name (Metrics.snapshot ()).Metrics.counters in
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "jacobi") in
      let o = Hier_mapper.map ~plaid:(Lazy.force plaid2) ~seed:2025 g in
      check Alcotest.(option int) "II" (Some 2)
        (Option.map (fun m -> m.Plaid_mapping.Mapping.ii) o.Hier_mapper.mapping);
      check Alcotest.int "driver/ii_attempts" 2 (counter "driver/ii_attempts");
      check Alcotest.int "driver/mapped" 1 (counter "driver/mapped"))

(* ---------------------------------------------------------- specialization *)

let test_st_ml_rejects_foreign_ops () =
  let arch = Specialize.st_ml () in
  let fu = arch.Plaid_arch.Arch.fus.(0) in
  check Alcotest.bool "mul ok" true (Plaid_arch.Arch.fu_supports arch fu Op.Mul);
  check Alcotest.bool "xor pruned" false (Plaid_arch.Arch.fu_supports arch fu Op.Xor)

let test_plaid_ml_hardwired () =
  let p = Specialize.plaid_ml () in
  let kinds = Array.to_list p.Pcu.pcus |> List.filter_map (fun u -> u.Pcu.hardwired) in
  check Alcotest.int "all four hardwired" 4 (List.length kinds);
  check Alcotest.int "two fan-in"
    2
    (List.length (List.filter (( = ) Motif.Fan_in) kinds))

let test_plaid_ml_smaller_config () =
  let general = (Lazy.force plaid2).Pcu.arch in
  let ml = (Specialize.plaid_ml ()).Pcu.arch in
  check Alcotest.bool "hardwiring shrinks comm config" true
    (ml.Plaid_arch.Arch.config.comm_bits < general.Plaid_arch.Arch.config.comm_bits)

let test_plaid_ml_maps_ml_kernel () =
  let p = Specialize.plaid_ml () in
  let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "conv2x2") in
  match (Hier_mapper.map ~params:Hier_mapper.quick ~plaid:p ~seed:4 g).Hier_mapper.mapping with
  | None -> Alcotest.fail "plaid-ml cannot map conv2x2"
  | Some m -> (
    match Plaid_mapping.Mapping.validate m with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)

let suites =
  [
    ( "motif",
      [
        Alcotest.test_case "unicast matches" `Quick test_motif_unicast_matches;
        Alcotest.test_case "fan-in matches" `Quick test_motif_fan_in_matches;
        Alcotest.test_case "rejects memory nodes" `Quick test_motif_rejects_memory;
        Alcotest.test_case "of_nodes canonicalizes" `Quick test_motif_of_nodes_canonicalizes;
        Alcotest.test_case "internal edges" `Quick test_motif_internal_edges;
      ] );
    ( "motif-gen",
      [
        Alcotest.test_case "finds both motifs" `Quick test_motif_gen_finds_both;
        Alcotest.test_case "never worse than greedy" `Slow test_motif_gen_improves_on_greedy;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20250705 |]) prop_motif_gen_valid;
      ] );
    ( "templates",
      [
        Alcotest.test_case "legal" `Quick test_templates_nonempty_and_legal;
        Alcotest.test_case "strict subset" `Quick test_templates_strict_subset;
      ] );
    ( "pcu",
      [
        Alcotest.test_case "structure" `Quick test_pcu_structure;
        Alcotest.test_case "pcu_of_fu" `Quick test_pcu_of_fu;
        Alcotest.test_case "3x3 interior memory" `Quick test_pcu_3x3_interior_no_memory;
        Alcotest.test_case "config bits near paper" `Quick test_pcu_config_bits_near_paper;
        Alcotest.test_case "local routes cheap" `Quick test_pcu_local_routes_cheap;
        Alcotest.test_case "bypass" `Quick test_pcu_bypass;
        Alcotest.test_case "outside values enter by legs" `Quick test_pcu_outside_enters_by_legs;
      ] );
    ( "hier-mapper",
      [
        Alcotest.test_case "maps suite sample" `Slow test_hier_maps_suite_sample;
        Alcotest.test_case "deterministic" `Quick test_hier_deterministic;
        Alcotest.test_case "respects MII" `Quick test_hier_respects_mii;
        Alcotest.test_case "II-1 port bound" `Quick test_hier_port_bound;
        Alcotest.test_case "golden mapfiles" `Quick test_hier_golden_mapfiles;
        Alcotest.test_case "rejected II not annealed" `Quick test_hier_skips_rejected_ii;
        Alcotest.test_case "driver counts attempts" `Quick test_hier_driver_counters;
      ] );
    ( "specialize",
      [
        Alcotest.test_case "st-ml pruning" `Quick test_st_ml_rejects_foreign_ops;
        Alcotest.test_case "plaid-ml hardwired" `Quick test_plaid_ml_hardwired;
        Alcotest.test_case "plaid-ml smaller config" `Quick test_plaid_ml_smaller_config;
        Alcotest.test_case "plaid-ml maps conv2x2" `Slow test_plaid_ml_maps_ml_kernel;
      ] );
  ]
