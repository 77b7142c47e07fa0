(* serve_warm: one closed-loop client sends protocol lines through
   [Service.parse_request] -> [Service.handle] -> [Service.write_response]
   against a populated store, with the metrics registry armed as
   [plaidc serve] arms it.  The mapper never runs; the work is protocol
   parsing, the front end, fingerprinting and the two cache tiers. *)

open Common

(* plaid_2x2 kernels whose cold hierarchical mapping takes over 0.2 s;
   mapping them would add about a minute of set-up without changing the
   warm path. *)
let slow_plaid =
  [ "atax_u4"; "gemm_u4"; "gesummv_u4"; "cholesky_u2"; "cholesky_u4"; "durbin_u4";
    "gramsc_u4"; "jacobi"; "seidel" ]

let plaid_entries () =
  List.filter
    (fun e -> not (List.mem (Plaid_workloads.Suite.name e) slow_plaid))
    Plaid_workloads.Suite.table2

let plc_files () =
  let dir = "examples/kernels" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".plc")
  |> List.sort compare
  |> List.map (Filename.concat dir)

type key = {
  line : string;  (** the request as a client sends it *)
  source : [ `Suite of Plaid_workloads.Suite.entry | `File of string ];
  arch : string;  (** service fabric name *)
}

let keys () =
  let suite arch e =
    { line = Printf.sprintf "map kernel=%s arch=%s" (Plaid_workloads.Suite.name e) arch;
      source = `Suite e; arch }
  in
  let file arch f =
    { line = Printf.sprintf "compile file=%s arch=%s" f arch; source = `File f; arch }
  in
  List.map (suite "st") Plaid_workloads.Suite.table2
  @ List.map (suite "plaid") (plaid_entries ())
  @ List.concat_map (fun f -> [ file "plaid" f; file "st" f ]) (plc_files ())

(* The request sequence is fixed: popularity ranks are a fixed permutation
   of the keys and the Zipf draw a fixed order.  With a memory tier smaller
   than the working set, the order decides which requests hit memory and
   which hit disk, so a seeded order would be seeded work.  The seed only
   picks where in the cycle the client starts; once the memory tier has
   settled, every whole cycle does the same work from any start. *)
let sequence_seed = 2025
let zipf_s = 1.0
let sequence_len = 2000

let sequence n_keys =
  let ranked =
    Array.of_list (Perfbench.Draw.shuffled ~seed:sequence_seed (List.init n_keys Fun.id))
  in
  Array.map (fun r -> ranked.(r))
    (Perfbench.Draw.zipf ~seed:sequence_seed ~s:zipf_s ~n:n_keys ~len:sequence_len)

(* Cold-serve every key into a fresh store; returns each key's payload. *)
let populate ctx keys () =
  let dir = fresh_dir ctx "serve-store" in
  let svc = Plaid_serve.Service.create ~cache:(Plaid_serve.Cache.create ~dir ()) () in
  let serve k =
    match
      Result.map (Plaid_serve.Service.handle svc) (Plaid_serve.Service.parse_request k.line)
    with
    | Ok (Plaid_serve.Service.Payload { source = Some _; payload }) -> payload
    | _ -> failwith ("serve_warm: set-up could not compile " ^ k.line)
  in
  (dir, Array.map serve keys)

type split = { mem : int; disk : int; miss : int }

let split_string s = Printf.sprintf "mem=%d disk=%d miss=%d" s.mem s.disk s.miss

type epoch = {
  lat_ms : ((int * bool) * float) list;
      (** timed requests only: ((key, served from disk), ms) *)
  wall : float;  (** of the timed cycles *)
  served : int;  (** every request, the warm-up cycle's too *)
  failed : int;
  split : split;  (** cache outcomes of one timed cycle *)
}

(* Serve the sequence from a restarted service (memory tier empty, store
   populated), starting at [offset]: one untimed cycle lets the memory tier
   settle, then whole cycles run until [seconds] have passed, at least one.
   Every timed cycle must split between the tiers the same way. *)
let serve_epoch ctx ~dir ~budget ~keys ~blobs ~seq ~offset ~seconds =
  let cache = Plaid_serve.Cache.create ~mem_budget:budget ~dir () in
  let svc = Plaid_serve.Service.create ~cache () in
  let sink_path = Filename.concat ctx.work "serve.sink" in
  let sink = open_out_bin sink_path in
  let n = Array.length seq in
  let failed = ref 0 in
  let serve i =
    let k = seq.((offset + i) mod n) in
    let t0 = now () in
    let resp =
      span "bench.request" @@ fun () ->
      match span "serve.parse" (fun () -> Plaid_serve.Service.parse_request keys.(k).line) with
      | Error e -> Plaid_serve.Service.Failure e
      | Ok req ->
        let resp = span "serve.handle" (fun () -> Plaid_serve.Service.handle svc req) in
        span "serve.write" (fun () ->
            seek_out sink 0;
            Plaid_serve.Service.write_response sink resp);
        resp
    in
    let ms = since t0 *. 1e3 in
    let disk =
      match resp with
      | Plaid_serve.Service.Payload
          { source = Some (Plaid_serve.Cache.Mem | Plaid_serve.Cache.Disk as tier); payload }
        when String.equal payload blobs.(k) -> tier = Plaid_serve.Cache.Disk
      | _ -> incr failed; false
    in
    ((k, disk), ms)
  in
  let cycle () =
    let s0 = Plaid_serve.Cache.stats cache in
    let lat = List.init n serve in
    let s1 = Plaid_serve.Cache.stats cache in
    (lat, { mem = s1.hit_mem - s0.hit_mem; disk = s1.hit_disk - s0.hit_disk; miss = s1.miss - s0.miss })
  in
  ignore (cycle ());
  let t_start = now () in
  let rec go acc =
    let acc = cycle () :: acc in
    if since t_start < seconds then go acc else acc
  in
  let cycles = go [] in
  let wall = since t_start in
  close_out sink;
  Sys.remove sink_path;
  let split =
    match List.sort_uniq compare (List.map snd cycles) with
    | [ s ] -> s
    | _ -> failwith "serve_warm: timed cycles split differently between the cache tiers"
  in
  { lat_ms = List.concat_map fst cycles; wall; served = n * (List.length cycles + 1);
    failed = !failed; split }

(* Per-stage costs of the warm path, timed by calling the same public
   functions [Service.handle] calls, on the same inputs. *)
let probe ctx ~dir ~keys ~blobs ~rounds =
  let st = st_fabric () and plaid = (plaid_fabric ()).Plaid_core.Pcu.arch in
  let put_dir = fresh_dir ctx "serve-put" in
  let acc = Hashtbl.create 16 in
  let time name f =
    let v, dt = timed f in
    let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (n + 1, t +. (dt *. 1e6));
    v
  in
  for _ = 1 to rounds do
    Array.iteri
      (fun i k ->
        let dfg =
          match k.source with
          | `Suite e -> time "ir.lower_us" (fun () -> Plaid_workloads.Suite.dfg e)
          | `File f -> time "ir.parse_opt_us" (fun () -> dfg_of_plc f)
        in
        (* the mapper names [Service] keys its two fabrics with *)
        let arch, mapper =
          if k.arch = "st" then (st, "best_of:pf+sa:default") else (plaid, "hier:default")
        in
        ignore (time "serve.fingerprint_dfg_us" (fun () -> Plaid_serve.Fingerprint.dfg dfg));
        ignore (time "serve.fingerprint_arch_us" (fun () -> Plaid_serve.Fingerprint.arch arch));
        let key =
          time "serve.fingerprint_key_us" (fun () ->
              Plaid_serve.Fingerprint.key ~dfg ~arch ~mapper ~seed:mapper_seed)
        in
        let cache = Plaid_serve.Cache.create ~dir () in
        let find name =
          match time name (fun () -> Plaid_serve.Cache.find cache ~key) with
          | Some (b, _) when String.equal b blobs.(i) -> ()
          | _ -> failwith ("serve_warm: probe lookup missed " ^ k.line)
        in
        find "serve.cache_find_disk_us";
        find "serve.cache_find_mem_us";
        let scratch = Plaid_serve.Cache.create ~dir:put_dir () in
        time "serve.cache_put_us" (fun () -> Plaid_serve.Cache.put scratch ~key blobs.(i)))
      keys
  done;
  rm_rf put_dir;
  Hashtbl.fold (fun name (n, t) l -> (name, t /. float_of_int n) :: l) acc []

let run ctx =
  (* [plaidc serve] always arms the registry; so does this workload *)
  Plaid_obs.Metrics.set_enabled true;
  let keys = Array.of_list (keys ()) in
  let n_keys = Array.length keys in
  let (dir, blobs), setup_s = repeat_setup (populate ctx keys) in
  let working_set = Array.fold_left (fun acc b -> acc + String.length b) 0 blobs in
  let budget = working_set / 4 in
  let seq = sequence n_keys in
  let offset = Plaid_util.Rng.int (Plaid_util.Rng.create ctx.seed) sequence_len in
  let iig =
    let resolve = suite_resolver () in
    Perfbench.Stats.ii_geomean
      (Array.to_list (Array.map (fun b -> ii_and_depth (load_blob ~resolve b)) blobs))
  in
  let epoch seconds = serve_epoch ctx ~dir ~budget ~keys ~blobs ~seq ~offset ~seconds in
  let facts =
    [ ("keys", string_of_int n_keys); ("working_set_bytes", string_of_int working_set);
      ("mem_budget_bytes", string_of_int budget);
      ("sequence",
       Printf.sprintf "%d requests, Zipf(s=%g), starting at %d" sequence_len zipf_s offset);
      ("pool_width", "none (one domain)") ]
  in
  let result =
    if not ctx.traced then begin
      let e = epoch ctx.seconds in
      (* a key served from memory and from disk are two operations *)
      let ops, samples = op_metrics e.lat_ms in
      let lat = Perfbench.Stats.summarize ~tail_p:99.0 (List.map snd e.lat_ms) in
      { attempted = e.served; failed = e.failed;
        e2e =
          [ m "setup_s" "s" setup_s; m "peak_heap_mb" "MiB" (peak_heap_mb ());
            m "ii_geomean" "cycles" iig ]
          @ ops;
        layers = [];
        headline =
          [ m "serve_us_p50" "us" (lat.p50 *. 1e3); m "serve_us_p99" "us" (lat.tail *. 1e3);
            m "serve_rps" "1/s" (float_of_int lat.n /. e.wall) ];
        facts =
          facts @ [ ("samples", samples); ("percentile_samples", Perfbench.Stats.describe lat) ];
        det =
          [ ("ii_geomean", Printf.sprintf "%.6f" iig); ("split", split_string e.split);
            ("failed", string_of_int e.failed) ] }
    end
    else begin
      (* the untraced pass runs with nothing armed, so the overhead figure
         is the cost of all telemetry *)
      Plaid_obs.Metrics.set_enabled false;
      let plain = epoch 0.0 in
      arm_tracing ();
      let traced = epoch 0.0 in
      let spans, snap = Layers.harvest ~keep_metrics:false in
      (* untraced passes on both sides, so warm-up is not read as overhead *)
      let plain_after = epoch 0.0 in
      if List.exists (fun e -> e.split <> traced.split) [ plain; plain_after ] then
        failwith "serve_warm: the traced pass saw a different cache hit split";
      let untraced = Float.min plain.wall plain_after.wall in
      let s = traced.split in
      let protocol_us =
        (Layers.total spans "serve.parse" +. Layers.total spans "serve.write")
        /. float_of_int traced.served
      in
      let extras =
        probe ctx ~dir ~keys ~blobs ~rounds:3
        @ [ ("serve.protocol_us", protocol_us);
            ("serve.cache_mem_hit_ratio", ratio s.mem (s.mem + s.disk + s.miss));
            ("serve.cache_miss", float_of_int s.miss);
            ("obs.overhead_pct", ((traced.wall /. untraced) -. 1.0) *. 100.0);
            ("fail_ratio", ratio traced.failed traced.served) ]
      in
      { attempted = traced.served; failed = traced.failed; e2e = [];
        layers = Layers.collect ~spans ~snap ~extras;
        headline = [ m "serve_pass_s" "s" untraced; m "serve_pass_traced_s" "s" traced.wall ];
        facts = facts @ [ ("samples", string_of_int (List.length traced.lat_ms)) ];
        det = [ ("split", split_string s); ("failed", string_of_int traced.failed) ] }
    end
  in
  rm_rf dir;
  result
