(* dse_cold: an exhaustive design-space sweep of the [paper] space over the
   [ml] suite with the default (non-quick) mappers, a fresh store and a
   pool of nproc workers.  The only workload that runs [Plaid_util.Pool]
   (including [best_of]'s nested speculation) and the only one that writes
   the cache. *)

open Common

let space_name = "paper"
let suite_name = "ml"

type setup = {
  pool : Plaid_util.Pool.t;
  space : Plaid_dse.Space.t;  (** candidates in a seeded order *)
  suite : Plaid_workloads.Suite.entry list;
  archs : Plaid_arch.Arch.t list;  (** to resolve reloaded blobs *)
}

let setup ctx () =
  let space = Option.get (Plaid_dse.Space.find_preset space_name) in
  let space =
    { space with candidates = Perfbench.Draw.shuffled ~seed:ctx.seed space.candidates }
  in
  let archs = List.map (fun c -> (Plaid_dse.Space.build c).arch) space.candidates in
  (* the pool comes last: with its idle workers alive, building the fabrics
     took 5 ms in some processes and 14 ms in others *)
  let pool = Plaid_util.Pool.create ~size:ctx.nproc () in
  { pool; space; suite = Option.get (Plaid_dse.Eval.find_suite suite_name); archs }

type pass = {
  wall : float;
  digest : string;  (** of the rendered report *)
  evals : int;
  reloaded : int;
  reload_failures : int;
  iis : (int option * int) list;  (** (II if mapped, config depth) per evaluation *)
  mapped : int;
}

(* One campaign against a fresh store; then every stored mapping must
   reload with validation. *)
let campaign ctx s =
  let dir = fresh_dir ctx "dse-store" in
  let cache = Plaid_serve.Cache.create ~dir () in
  let (c : Plaid_dse.Eval.campaign), wall =
    timed (fun () ->
        Plaid_dse.Eval.run
          (Plaid_dse.Eval.create ~pool:s.pool ~cache ())
          ~space:s.space ~suite_name ~suite:s.suite ~strategy:Plaid_dse.Search.Exhaustive)
  in
  let store = Option.get (Plaid_serve.Cache.store cache) in
  let resolve = resolver s.archs in
  let reloaded = ref 0 and failures = ref 0 in
  Plaid_serve.Store.iter store (fun key ->
      match Plaid_serve.Store.get store ~key with
      | Plaid_serve.Store.Hit "" -> () (* a cached "no mapping" *)
      | Plaid_serve.Store.Hit blob -> (
        incr reloaded;
        match Plaid_mapping.Mapfile.of_string ~validate:true ~resolve blob with
        | Ok _ -> ()
        | Error _ -> incr failures)
      | Plaid_serve.Store.Miss | Plaid_serve.Store.Corrupt -> incr failures);
  rm_rf dir;
  let outcomes =
    List.concat_map
      (fun (r : Plaid_dse.Eval.candidate_result) ->
        let depth = r.cr_cand.config_entries in
        Array.to_list r.cr_kernels
        |> List.map (fun (k : Plaid_dse.Eval.kernel_outcome) ->
               ((if k.ko_ok then Some k.ko_ii else None), depth)))
      c.c_evaluated
  in
  { wall; digest = Digest.to_hex (Digest.string (Plaid_dse.Report.to_string c));
    evals = c.c_kernel_evals; reloaded = !reloaded; reload_failures = !failures;
    iis = outcomes; mapped = List.length (List.filter (fun (ii, _) -> ii <> None) outcomes) }

let check_same passes =
  match List.sort_uniq compare (List.map (fun p -> p.digest) passes) with
  | [ _ ] -> ()
  | _ -> failwith "dse_cold: two campaigns over the same space produced different reports"

let run ctx =
  let s, setup_s = repeat_setup ~discard:(fun s -> Plaid_util.Pool.shutdown s.pool) (setup ctx) in
  let n_cands = List.length s.space.candidates in
  let facts =
    [ ("space", Printf.sprintf "%s (%d candidates)" space_name n_cands);
      ("suite", Printf.sprintf "%s (%d kernels)" suite_name (List.length s.suite));
      ("pool_width", string_of_int (Plaid_util.Pool.size s.pool)) ]
  in
  Fun.protect ~finally:(fun () -> Plaid_util.Pool.shutdown s.pool) @@ fun () ->
  if not ctx.traced then begin
    (* a campaign takes 7-10 s, and single campaigns vary by about 10% with
       pool scheduling, so a run measures at least three *)
    let passes, _ = passes ctx ~min_passes:3 (fun _ -> campaign ctx s) in
    check_same passes;
    let first = List.hd passes in
    let per_cand = List.map (fun p -> p.wall /. float_of_int n_cands *. 1e3) passes in
    (* candidates run concurrently on the pool and are not timed one by one:
       the op is a campaign, charged per candidate *)
    let ops, samples = op_metrics (List.map (fun ms -> ((), ms)) per_cand) in
    let failed = List.fold_left (fun acc p -> acc + p.reload_failures) 0 passes in
    let iig = Perfbench.Stats.ii_geomean first.iis in
    { attempted = List.fold_left (fun acc p -> acc + p.evals + p.reloaded) 0 passes; failed;
      e2e =
        [ m "setup_s" "s" setup_s; m "peak_heap_mb" "MiB" (peak_heap_mb ());
          m "ii_geomean" "cycles" iig ]
        @ ops;
      layers = [];
      headline =
        [ m "dse_s_per_candidate" "s" (Perfbench.Stats.median per_cand /. 1e3);
          m "ii_geomean" "cycles" iig ];
      facts =
        facts
        @ [ ("campaigns", string_of_int (List.length passes));
            ("report_digest", first.digest); ("samples", samples) ];
      det =
        [ ("report_digest", first.digest); ("ii_geomean", Printf.sprintf "%.6f" iig);
          ("failed", string_of_int failed) ] }
  end
  else begin
    let plain = campaign ctx s in
    arm_tracing ();
    let traced = campaign ctx s in
    let spans, snap = Layers.harvest ~keep_metrics:false in
    (* untraced passes on both sides, so warm-up is not read as overhead *)
    let plain_after = campaign ctx s in
    check_same [ plain; traced; plain_after ];
    let untraced = Float.min plain.wall plain_after.wall in
    let hier = List.filter (fun (a : Plaid_mapping.Explain.attempt) -> a.at_algo = "hier")
        (Plaid_mapping.Explain.attempts ())
    in
    let hier_s = List.fold_left (fun acc (a : Plaid_mapping.Explain.attempt) -> acc +. a.at_ms) 0.0 hier /. 1e3 in
    (* the pool/busy_ns counter adds a nested batch's time to the task
       that waits for it, so busy time is read from the task spans *)
    let busy_us = Perfbench.Selftime.covered ~cat:"pool" spans "pool.task" in
    let extras =
      [ ("plaid.hier_s", hier_s); ("plaid.ii_attempts", float_of_int (List.length hier));
        ("dse.mapped_ratio", Common.ratio traced.mapped (List.length traced.iis));
        ("util.pool_busy_ratio",
         busy_us /. (traced.wall *. 1e6 *. float_of_int (Plaid_util.Pool.size s.pool)));
        ("obs.overhead_pct", ((traced.wall /. untraced) -. 1.0) *. 100.0);
        ("fail_ratio", Common.ratio traced.reload_failures (traced.evals + traced.reloaded)) ]
    in
    { attempted = traced.evals + traced.reloaded; failed = traced.reload_failures; e2e = [];
      layers = Layers.collect ~spans ~snap ~extras;
      headline =
        [ m "dse_s_per_candidate" "s" (untraced /. float_of_int n_cands);
          m "dse_s_per_candidate_traced" "s" (traced.wall /. float_of_int n_cands) ];
      facts = facts @ [ ("report_digest", traced.digest) ];
      det = [ ("report_digest", traced.digest); ("failed", string_of_int traced.reload_failures) ] }
  end
