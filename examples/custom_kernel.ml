(* Building a DFG directly with the low-level builder API, bypassing the
   kernel DSL — useful when a front end already produced a dataflow graph.
   The example is a 4-tap FIR filter with a loop-carried accumulator reset,
   mapped onto both the Plaid fabric and the spatio-temporal baseline so
   their mappings can be compared side by side.

   Run with: dune exec examples/custom_kernel.exe *)

open Plaid_ir

(* out[i] = c0*x[i] + c1*x[i+1] + c2*x[i+2] + c3*x[i+3] *)
let fir_dfg () =
  let b = Dfg.builder ~trip:24 "fir4" in
  let tap k coeff =
    let ld = Dfg.add_node b ~access:{ array = "x"; offset = k; stride = 1 } Op.Load in
    let mul = Dfg.add_node b ~imms:[ (1, coeff) ] ~label:(Printf.sprintf "tap%d" k) Op.Mul in
    Dfg.add_edge b ~src:ld ~dst:mul ~operand:0 ();
    mul
  in
  let taps = List.mapi tap [ 3; -1; 4; 2 ] in
  let rec reduce = function
    | [ x ] -> x
    | x :: y :: rest ->
      let add = Dfg.add_node b Op.Add in
      Dfg.add_edge b ~src:x ~dst:add ~operand:0 ();
      Dfg.add_edge b ~src:y ~dst:add ~operand:1 ();
      reduce (add :: rest)
    | [] -> assert false
  in
  let sum = reduce taps in
  let st = Dfg.add_node b ~access:{ array = "out"; offset = 0; stride = 1 } Op.Store in
  Dfg.add_edge b ~src:sum ~dst:st ~operand:0 ();
  Dfg.finish b

let () =
  let dfg = fir_dfg () in
  Format.printf "DFG: %a (critical path %d)@." Dfg.pp_stats dfg (Analysis.critical_path dfg);

  (* Plaid, via the hierarchical motif mapper. *)
  let plaid = Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"plaid_2x2" () in
  (match (Plaid_core.Hier_mapper.map ~plaid ~seed:3 dfg).Plaid_core.Hier_mapper.mapping with
  | Some m ->
    Printf.printf "Plaid:          II=%d  %4d cycles  %.1f pJ\n" m.Plaid_mapping.Mapping.ii
      (Plaid_mapping.Mapping.perf_cycles m)
      (Plaid_model.Energy.fabric_energy m)
  | None -> print_endline "Plaid: mapping failed");

  (* Spatio-temporal baseline, best of PathFinder and simulated annealing. *)
  let st = Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st_4x4" in
  (match
     (Plaid_mapping.Driver.best_of
        ~algos:
          [ Plaid_mapping.Driver.Pf Plaid_mapping.Pathfinder.default;
            Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.default ]
        ~arch:st ~dfg ~seed:3 ())
       .Plaid_mapping.Driver.mapping
   with
  | Some m ->
    Printf.printf "Spatio-temporal: II=%d  %4d cycles  %.1f pJ\n" m.Plaid_mapping.Mapping.ii
      (Plaid_mapping.Mapping.perf_cycles m)
      (Plaid_model.Energy.fabric_energy m)
  | None -> print_endline "ST: mapping failed");

  (* Spatial baseline with automatic partitioning. *)
  match Plaid_spatial.Spatial.run ~seed:3 dfg with
  | Ok r ->
    let run = Plaid_model.Energy.Segments r.mappings in
    Printf.printf "Spatial:        %d segment(s)  %4d cycles  %.1f pJ\n"
      (List.length r.mappings)
      (Plaid_model.Energy.cycles ~outer:1 run)
      (Plaid_model.Energy.energy ~outer:1 run)
  | Error msg -> Printf.printf "Spatial: %s\n" msg
