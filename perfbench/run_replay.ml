(* run_replay: the [plaidc run] path.  The mapping blobs serve_warm serves
   are replayed in a seeded order: load with validation,
   encode the bitstream, simulate against the reference on seeded data,
   and price the host invocation and the fabric. *)

open Common

type item = {
  label : string;
  blob : string;
  spm : Plaid_sim.Spm.t;
}

type setup = {
  items : item array;
  resolve : string -> Plaid_arch.Arch.t option;
  iis : (int option * int) list;  (** (II, config depth) per blob *)
}

(* The blobs are the ones serve_warm's set-up serves cold, one per key. *)
let setup ctx () =
  let keys = Array.of_list (Serve_warm.keys ()) in
  let dir, blobs = Serve_warm.populate ctx keys () in
  rm_rf dir;
  let resolve = suite_resolver () in
  let mappings = Array.map (load_blob ~resolve) blobs in
  let items =
    Array.mapi
      (fun i blob ->
        { label = keys.(i).Serve_warm.line; blob; spm = spm_of_dfg ~seed:ctx.seed mappings.(i).dfg })
      blobs
  in
  { items; resolve; iis = Array.to_list (Array.map ii_and_depth mappings) }

type replay = { ok : bool; ms : float; cycles : int; host : int }

let replay s it =
  let t0 = now () in
  let outcome =
    span "bench.replay" @@ fun () ->
    match
      span "mapping.mapfile_load" (fun () ->
          Plaid_mapping.Mapfile.of_string ~validate:true ~resolve:s.resolve it.blob)
    with
    | Error _ -> None
    | Ok m -> (
      let bits = span "mapping.bitstream" (fun () -> Plaid_mapping.Bitstream.generate m) in
      let sim = span "sim.verify" (fun () -> Plaid_sim.Cycle_sim.verify m it.spm) in
      let host =
        span "sim.host" (fun () ->
            let words_in, words_out = Plaid_sim.Host.kernel_words m.dfg in
            Plaid_sim.Host.total (Plaid_sim.Host.invoke m ~words_in ~words_out))
      in
      ignore (span "model.price" (fun () -> price m));
      match (bits, sim) with
      | Ok _, Ok st -> Some (st.Plaid_sim.Cycle_sim.cycles, host)
      | _ -> None)
  in
  let ms = since t0 *. 1e3 in
  match outcome with
  | Some (cycles, host) -> { ok = true; ms; cycles; host }
  | None -> { ok = false; ms; cycles = 0; host = 0 }

(* One round replays every blob once, in an order drawn from the seed and
   the round number. *)
let round ctx s r =
  let order = Perfbench.Draw.shuffled ~seed:((ctx.seed * 7919) + r) (Array.to_list s.items) in
  List.map (fun it -> (it.label, replay s it)) order

(* Deterministic outputs of a round, independent of its order. *)
let round_digest rs =
  List.map (fun (label, r) -> Printf.sprintf "%s %b %d %d" label r.ok r.cycles r.host) rs
  |> List.sort compare |> digest_lines

let check_same rounds =
  match List.sort_uniq compare (List.map round_digest rounds) with
  | [ _ ] -> ()
  | _ -> failwith "run_replay: replaying the same blobs gave different results"

(* Load, validate and write costs on their own, timed outside the replay. *)
let probe s ~rounds =
  let read = ref 0.0 and valid = ref 0.0 and write = ref 0.0 and n = ref 0 in
  for _ = 1 to rounds do
    Array.iter
      (fun it ->
        let m, dt =
          timed (fun () ->
              Result.get_ok
                (Plaid_mapping.Mapfile.of_string ~validate:false ~resolve:s.resolve it.blob))
        in
        read := !read +. dt;
        let v, dt = timed (fun () -> Plaid_mapping.Mapping.validate m) in
        if Result.is_error v then failwith ("run_replay: probe mapping invalid: " ^ it.label);
        valid := !valid +. dt;
        let b, dt = timed (fun () -> Plaid_mapping.Mapfile.to_string m) in
        if not (String.equal b it.blob) then
          failwith ("run_replay: blob does not round-trip: " ^ it.label);
        write := !write +. dt;
        incr n)
      s.items
  done;
  let per x = !x *. 1e6 /. float_of_int !n in
  [ ("mapping.mapfile_read_us", per read); ("mapping.validate_us", per valid);
    ("mapping.mapfile_write_us", per write) ]

let run ctx =
  let s, setup_s = repeat_setup (setup ctx) in
  let n_items = Array.length s.items in
  let iig = Perfbench.Stats.ii_geomean s.iis in
  let facts = [ ("blobs", string_of_int n_items); ("pool_width", "none (one domain)") ] in
  if not ctx.traced then begin
    let rounds, _ = passes ctx ~min_passes:2 (round ctx s) in
    check_same rounds;
    let all = List.concat_map (List.map snd) rounds in
    let failed = List.length (List.filter (fun r -> not r.ok) all) in
    let ops, samples =
      op_metrics (List.concat_map (List.map (fun (label, r) -> (label, r.ms))) rounds)
    in
    let lat = Perfbench.Stats.summarize ~tail_p:99.0 (List.map (fun r -> r.ms) all) in
    { attempted = List.length all; failed;
      e2e =
        [ m "setup_s" "s" setup_s; m "peak_heap_mb" "MiB" (peak_heap_mb ());
          m "ii_geomean" "cycles" iig ]
        @ ops;
      layers = [];
      headline = [ m "run_ms_p50" "ms" lat.p50; m "run_ms_p99" "ms" lat.tail ];
      facts =
        facts
        @ [ ("rounds", string_of_int (List.length rounds)); ("samples", samples);
            ("percentile_samples", Perfbench.Stats.describe lat) ];
      det =
        [ ("ii_geomean", Printf.sprintf "%.6f" iig); ("round", round_digest (List.hd rounds));
          ("failed", string_of_int failed) ] }
  end
  else begin
    let epoch_rounds = 4 in
    let epoch () = timed (fun () -> List.init epoch_rounds (round ctx s)) in
    let plain, plain_s = epoch () in
    arm_tracing ();
    let traced, traced_s = epoch () in
    let spans, snap = Layers.harvest ~keep_metrics:false in
    (* untraced passes on both sides, so warm-up is not read as overhead *)
    let plain_after, plain_after_s = epoch () in
    check_same (plain @ traced @ plain_after);
    let plain_s = Float.min plain_s plain_after_s in
    let all = List.concat_map (List.map snd) traced in
    let failed = List.length (List.filter (fun r -> not r.ok) all) in
    let extras =
      probe s ~rounds:3
      @ [ ("obs.overhead_pct", ((traced_s /. plain_s) -. 1.0) *. 100.0);
          ("fail_ratio", ratio failed (List.length all)) ]
    in
    { attempted = List.length all; failed; e2e = [];
      layers = Layers.collect ~spans ~snap ~extras;
      headline = [ m "run_epoch_s" "s" plain_s; m "run_epoch_traced_s" "s" traced_s ];
      facts;
      det = [ ("round", round_digest (List.hd traced)); ("failed", string_of_int failed) ] }
  end
