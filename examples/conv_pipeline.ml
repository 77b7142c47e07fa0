(* A TinyML-style application: run a small convolutional network layer by
   layer on Plaid, domain-specialized Plaid-ML, and the spatial baseline —
   the workflow behind Figure 16/19 of the paper.

   Run with: dune exec examples/conv_pipeline.exe *)

open Plaid_workloads

let layers =
  [ ("conv3x3", 32); ("dwconv", 32); ("conv2x2", 16); ("dwconv", 16); ("fc", 2) ]

let () =
  let ctx = Plaid_exp.Ctx.create ~seed:11 () in
  let outer = Plaid_exp.Ctx.outer ctx in
  Printf.printf "%-10s %-12s %-12s %-12s\n" "layer" "plaid pJ" "plaid-ml pJ" "spatial pJ";
  let totals = Array.make 3 0.0 in
  List.iter
    (fun (name, invocations) ->
      let entry = Suite.find name in
      let inv = float_of_int invocations in
      let plaid_e =
        match Plaid_exp.Ctx.map ctx Plaid entry with
        | Some m -> inv *. Plaid_model.Energy.(energy ~outer (Modulo m))
        | None -> nan
      in
      let plaid_ml_e =
        match Plaid_exp.Ctx.map ctx Plaid_ml entry with
        | Some m -> inv *. Plaid_model.Energy.(energy ~outer (Modulo m))
        | None -> nan
      in
      let spatial_e =
        match Plaid_exp.Ctx.spatial ctx entry with
        | Ok r -> inv *. Plaid_model.Energy.(energy ~outer (Segments r.mappings))
        | Error _ -> nan
      in
      totals.(0) <- totals.(0) +. plaid_e;
      totals.(1) <- totals.(1) +. plaid_ml_e;
      totals.(2) <- totals.(2) +. spatial_e;
      Printf.printf "%-10s %-12.1f %-12.1f %-12.1f\n" name plaid_e plaid_ml_e spatial_e)
    layers;
  Printf.printf "%-10s %-12.1f %-12.1f %-12.1f\n" "total" totals.(0) totals.(1) totals.(2);
  Printf.printf
    "\nPlaid-ML saves %.1f%% energy vs general Plaid; spatial costs %.2fx Plaid\n"
    (100.0 *. (1.0 -. (totals.(1) /. totals.(0))))
    (totals.(2) /. totals.(0))
