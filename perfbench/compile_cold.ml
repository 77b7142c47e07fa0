(* compile_cold: the Table-2 suite compiled from scratch on two fabrics, no
   cache.  Each pair lowers the kernel, maps it (Plaid's hierarchical
   mapper on plaid_2x2, the PathFinder+SA portfolio on st_4x4), validates,
   encodes the bitstream, writes the mapfile, simulates against the
   reference interpreter, and prices the result. *)

open Common

(* Five plaid_2x2 pairs take 4.7-21 s each (42 s together on a 2-core x86
   box, against 6.5 s for the other 55 pairs), which would not fit the
   benchmark's run budget; they are left out of this workload. *)
let heavy_plaid = [ "gemm_u4"; "durbin_u4"; "gesummv_u4"; "cholesky_u4"; "jacobi" ]

type fabric = St of Plaid_arch.Arch.t | Plaid of Plaid_core.Pcu.t

type pair = {
  entry : Plaid_workloads.Suite.entry;
  fabric : fabric;
  spm : Plaid_sim.Spm.t;
}

let fabric_name = function St _ -> "st_4x4" | Plaid _ -> "plaid_2x2"

let arch_of = function St a -> a | Plaid p -> p.Plaid_core.Pcu.arch

type outcome = {
  label : string;
  ii : int option;
  mii : int;
  depth : int;
  blob : string;
  ok : bool;
  ms : float;
}

let setup ctx () =
  let st = st_fabric () and plaid = plaid_fabric () in
  (* route tables are built lazily on first use; build them here *)
  ignore (Plaid_arch.Arch.route_tables st);
  ignore (Plaid_arch.Arch.route_tables plaid.Plaid_core.Pcu.arch);
  let spm_of e =
    let k = Plaid_ir.Unroll.apply e.Plaid_workloads.Suite.base e.Plaid_workloads.Suite.unroll in
    Plaid_sim.Spm.of_kernel k ~params:(Plaid_workloads.Suite.params e) ~seed:ctx.seed
  in
  (* Pairs run in Table-2 order: the router's memo carries over from pair
     to pair, so another order would be another amount of work.  The seed
     draws the simulation data. *)
  List.concat_map
    (fun e ->
      let spm = spm_of e in
      { entry = e; fabric = St st; spm }
      :: (if List.mem (Plaid_workloads.Suite.name e) heavy_plaid then []
          else [ { entry = e; fabric = Plaid plaid; spm } ]))
    Plaid_workloads.Suite.table2

let map_pair p dfg =
  match p.fabric with
  | Plaid plaid ->
    let hier =
      span "plaid.motif" (fun () -> Plaid_core.Hier_mapper.default_hier ~seed:mapper_seed dfg)
    in
    let o =
      span "plaid.hier" (fun () ->
          Plaid_core.Hier_mapper.map_hier ~plaid ~hier ~seed:mapper_seed dfg)
    in
    (o.Plaid_core.Hier_mapper.mapping, o.mii)
  | St arch ->
    let o =
      span "mapping.best_of" (fun () ->
          Plaid_mapping.Driver.best_of ~algos:best_of_algos ~arch ~dfg ~seed:mapper_seed ())
    in
    (o.Plaid_mapping.Driver.mapping, o.mii)

(* One pair, every stage call in its own span. *)
let compile_pair p =
  let t0 = now () in
  let ii, mii, blob, ok =
    span "bench.pair" @@ fun () ->
    let dfg = span "ir.lower" (fun () -> Plaid_workloads.Suite.dfg p.entry) in
    match map_pair p dfg with
    | None, mii -> (None, mii, "", false)
    | Some m, mii ->
      let valid = span "mapping.validate" (fun () -> Plaid_mapping.Mapping.validate m) in
      let bits = span "mapping.bitstream" (fun () -> Plaid_mapping.Bitstream.generate m) in
      let blob = span "mapping.mapfile_write" (fun () -> Plaid_mapping.Mapfile.to_string m) in
      let sim = span "sim.verify" (fun () -> Plaid_sim.Cycle_sim.verify m p.spm) in
      ignore (span "model.price" (fun () -> price m));
      ( Some m.Plaid_mapping.Mapping.ii, mii, blob,
        Result.is_ok valid && Result.is_ok bits && Result.is_ok sim )
  in
  { label = Plaid_workloads.Suite.name p.entry ^ "@" ^ fabric_name p.fabric; ii; mii;
    depth = (arch_of p.fabric).Plaid_arch.Arch.config.entries; blob; ok;
    ms = since t0 *. 1e3 }

let compile_pass pairs = List.map compile_pair pairs

(* Deterministic outputs of one pass, in a canonical (sorted) order. *)
let pass_digest outcomes =
  List.map (fun o -> o.label ^ " " ^ Digest.to_hex (Digest.string o.blob)) outcomes
  |> List.sort compare |> digest_lines

let ii_geomean outcomes =
  Perfbench.Stats.ii_geomean (List.map (fun o -> (o.ii, o.depth)) outcomes)

let check_same_passes passes =
  match List.sort_uniq compare (List.map pass_digest passes) with
  | [ _ ] -> ()
  | _ -> failwith "compile_cold: two passes over the same pairs produced different mappings"

let run ctx =
  let pairs, setup_s = repeat_setup (setup ctx) in
  let n_pairs = List.length pairs in
  let timed_pass _ = timed (fun () -> compile_pass pairs) in
  let facts = [ ("pairs", string_of_int n_pairs); ("pool_width", "none (one domain)") ] in
  if not ctx.traced then begin
    (* a pass takes 6-10 s, and single passes vary by 10-30% on a shared
       box, so a run measures at least three and keeps each pair's best *)
    let passes, _ = passes ctx ~min_passes:3 timed_pass in
    let outcomes = List.map fst passes in
    check_same_passes outcomes;
    let all = List.concat outcomes in
    let failed = List.length (List.filter (fun o -> not o.ok) all) in
    let ops, samples = op_metrics (List.map (fun o -> (o.label, o.ms)) all) in
    let lat = Perfbench.Stats.summarize ~tail_p:90.0 (List.map (fun o -> o.ms) all) in
    let iig = ii_geomean (List.hd outcomes) in
    { attempted = List.length all; failed;
      e2e =
        [ m "setup_s" "s" setup_s; m "peak_heap_mb" "MiB" (peak_heap_mb ());
          m "ii_geomean" "cycles" iig ]
        @ ops;
      layers = [];
      headline =
        [ m "compile_total_s" "s" (Perfbench.Stats.median (List.map snd passes));
          m "compile_p50_ms" "ms" lat.p50; m "compile_p90_ms" "ms" lat.tail;
          m "ii_geomean" "cycles" iig ];
      facts =
        facts
        @ [ ("passes", string_of_int (List.length passes)); ("samples", samples);
            ("percentile_samples", Perfbench.Stats.describe lat) ];
      det =
        [ ("ii_geomean", Printf.sprintf "%.6f" iig); ("failed", string_of_int failed);
          ("blobs", pass_digest (List.hd outcomes)) ] }
  end
  else begin
    let plain, plain_s = timed_pass 0 in
    arm_tracing ();
    let traced, traced_s = timed_pass 1 in
    let spans, snap = Layers.harvest ~keep_metrics:false in
    (* untraced passes on both sides, so warm-up is not read as overhead *)
    let plain_after, plain_after_s = timed_pass 2 in
    check_same_passes [ plain; traced; plain_after ];
    let plain_s = Float.min plain_s plain_after_s in
    let failed = List.length (List.filter (fun o -> not o.ok) traced) in
    let plaid_outcomes =
      List.filter (fun o -> String.ends_with ~suffix:"@plaid_2x2" o.label) traced
    in
    (* every II from MII up to the mapped one (or the depth) was attempted *)
    let hier_attempts =
      List.fold_left
        (fun acc o -> acc + (Option.value ~default:o.depth o.ii - o.mii + 1))
        0 plaid_outcomes
    in
    let at_mii = List.length (List.filter (fun o -> o.ii = Some o.mii) plaid_outcomes) in
    let extras =
      [ ("plaid.ii_attempts", float_of_int hier_attempts);
        ("plaid.at_mii_ratio", ratio at_mii (List.length plaid_outcomes));
        ("obs.overhead_pct", ((traced_s /. plain_s) -. 1.0) *. 100.0);
        ("fail_ratio", ratio failed n_pairs) ]
    in
    { attempted = n_pairs; failed; e2e = [];
      layers = Layers.collect ~spans ~snap ~extras;
      headline = [ m "compile_total_s" "s" plain_s; m "compile_total_traced_s" "s" traced_s ];
      facts;
      det =
        [ ("ii_geomean", Printf.sprintf "%.6f" (ii_geomean traced));
          ("failed", string_of_int failed); ("blobs", pass_digest traced) ] }
  end
