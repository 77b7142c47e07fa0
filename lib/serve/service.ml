let m_requests = Plaid_obs.Metrics.counter "serve_requests"
let m_errors = Plaid_obs.Metrics.counter "serve_errors"
let m_deadline = Plaid_obs.Metrics.counter "serve_deadline_exceeded"

(* Latency series use the bounded fixed-bucket mode: a long-running server
   observes these on every request, and per-series memory must stay O(1). *)
let h_request_ms = Plaid_obs.Metrics.histogram_bucketed "serve_request_ms"
let h_queue_wait_ms = Plaid_obs.Metrics.histogram_bucketed "serve_queue_wait_ms"
let h_cache_ms = Plaid_obs.Metrics.histogram_bucketed "serve_cache_ms"
let h_compute_ms = Plaid_obs.Metrics.histogram_bucketed "serve_compute_ms"

let h_batch_size =
  Plaid_obs.Metrics.histogram_bucketed
    ~buckets:(Plaid_obs.Metrics.log_buckets ~start:1.0 ~factor:2.0 ~count:10)
    "serve_batch_size"

let h_queue_depth =
  Plaid_obs.Metrics.histogram_bucketed
    ~buckets:(Plaid_obs.Metrics.log_buckets ~start:1.0 ~factor:2.0 ~count:10)
    "serve_queue_depth"

type t = {
  cache : Cache.t;
  pool : Plaid_util.Pool.t option;
  fabrics : (string * Plaid_core.Fabrics.built) list;  (* by CLI name *)
  started : int64;  (* Clock.now_ns at create, for the health uptime *)
  slow_ms : float;
  (* always-live request/error tallies for the health line, independent of
     whether the metrics registry is armed *)
  n_requests : int Atomic.t;
  n_errors : int Atomic.t;
}

let create ?pool ?(slow_ms = 1000.0) ~cache () =
  (* eager: pool tasks must never race to build a shared fabric *)
  let fabrics =
    List.map (fun f -> (Plaid_core.Fabrics.name f, Plaid_core.Fabrics.build f))
      Plaid_core.Fabrics.all
  in
  { cache; pool; fabrics; started = Plaid_obs.Trace.Clock.now_ns (); slow_ms;
    n_requests = Atomic.make 0; n_errors = Atomic.make 0 }

let cache t = t.cache

type request =
  | Map of { kernel : string; arch : string; seed : int; deadline_ms : int option }
  | Compile of { file : string; arch : string; seed : int; deadline_ms : int option }
  | Case of { file : string; deadline_ms : int option }
  | Stats
  | Metrics
  | Health
  | Evict of [ `All | `Key of string ]
  | Quit

type response =
  | Payload of { source : Cache.source option; payload : string }
  | Failure of string

(* ------------------------------------------------------- request parsing *)

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let parse_kv args =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
      match String.index_opt tok '=' with
      | Some i when i > 0 ->
        go ((String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)) :: acc) rest
      | _ -> err "malformed argument %S (want key=value)" tok)
  in
  go [] args

let get_int kv key ~default =
  match List.assoc_opt key kv with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> err "argument %s=%S is not an integer" key v)

let get_deadline kv =
  match List.assoc_opt "deadline-ms" kv with
  | None -> Ok None
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> Ok (Some n)
    | Some n -> err "deadline-ms=%d must be positive" n
    | None -> err "argument deadline-ms=%S is not an integer" v)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let known kv allowed =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kv with
  | Some (k, _) -> err "unknown argument %s" k
  | None -> Ok ()

let parse_request line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [] -> Error "empty request"
  | "map" :: args ->
    let* kv = parse_kv args in
    let* () = known kv [ "kernel"; "arch"; "seed"; "deadline-ms" ] in
    let* seed = get_int kv "seed" ~default:2025 in
    let* deadline_ms = get_deadline kv in
    (match List.assoc_opt "kernel" kv with
    | None -> Error "map needs kernel=<name>"
    | Some kernel ->
      let arch = Option.value (List.assoc_opt "arch" kv) ~default:"plaid" in
      Ok (Map { kernel; arch; seed; deadline_ms }))
  | "compile" :: args ->
    let* kv = parse_kv args in
    let* () = known kv [ "file"; "arch"; "seed"; "deadline-ms" ] in
    let* seed = get_int kv "seed" ~default:2025 in
    let* deadline_ms = get_deadline kv in
    (match List.assoc_opt "file" kv with
    | None -> Error "compile needs file=<kernel.k>"
    | Some file ->
      let arch = Option.value (List.assoc_opt "arch" kv) ~default:"plaid" in
      Ok (Compile { file; arch; seed; deadline_ms }))
  | "case" :: args ->
    let* kv = parse_kv args in
    let* () = known kv [ "file"; "deadline-ms" ] in
    let* deadline_ms = get_deadline kv in
    (match List.assoc_opt "file" kv with
    | None -> Error "case needs file=<corpus.case>"
    | Some file -> Ok (Case { file; deadline_ms }))
  | [ "stats" ] -> Ok Stats
  | [ "metrics" ] -> Ok Metrics
  | [ "health" ] -> Ok Health
  | [ "evict"; "all" ] -> Ok (Evict `All)
  | "evict" :: args ->
    let* kv = parse_kv args in
    let* () = known kv [ "key" ] in
    (match List.assoc_opt "key" kv with
    | Some k -> Ok (Evict (`Key k))
    | None -> Error "evict needs 'all' or key=<hex>")
  | [ "quit" ] -> Ok Quit
  | cmd :: _ ->
    err "unknown request %s (choose from map, compile, case, stats, metrics, health, evict, quit)"
      cmd

(* ------------------------------------------------------------- compute *)

(* Resolve a request down to (key, compute) — everything except the mapping
   itself, so batches can dedupe before burning a worker. *)
let prepare t req =
  let fabric name =
    match List.assoc_opt name t.fabrics with
    | Some f -> Ok f
    | None ->
      Error
        (Printf.sprintf "unknown architecture %s (choose from %s)" name
           (String.concat ", " Plaid_core.Fabrics.names))
  in
  let keyed ~arch ~pcu ~seed dfg =
    let mapper = Compile.for_fabric pcu in
    Ok (Compile.key mapper ~arch ~dfg ~seed, fun () -> Compile.run mapper ~arch ~dfg ~seed)
  in
  match req with
  | Map { kernel; arch; seed; _ } -> (
    match Plaid_workloads.Suite.find kernel with
    | exception Not_found -> Error (Printf.sprintf "unknown kernel %s" kernel)
    | entry ->
      let* b = fabric arch in
      keyed ~arch:b.arch ~pcu:b.pcu ~seed (Plaid_workloads.Suite.dfg entry))
  | Compile { file; arch; seed; _ } -> (
    match Plaid_ir.Parse.kernel_of_file file with
    | exception Sys_error msg -> Error msg
    | Error e -> Error (Format.asprintf "%s: %a" file Plaid_ir.Parse.pp_error e)
    | Ok kernel -> (
      let* b = fabric arch in
      match Plaid_ir.Lower.lower kernel with
      | exception Invalid_argument msg -> Error (Printf.sprintf "%s: %s" file msg)
      | dfg -> keyed ~arch:b.arch ~pcu:b.pcu ~seed (fst (Plaid_ir.Opt.optimize dfg))))
  | Case { file; _ } -> (
    match Plaid_check.Case.load ~path:file with
    | Error e -> Error (Printf.sprintf "%s: %s" file e)
    | Ok c -> (
      match Plaid_check.Case.build c with
      | exception Invalid_argument msg -> Error (Printf.sprintf "%s: %s" file msg)
      | arch, pcu -> keyed ~arch ~pcu ~seed:c.Plaid_check.Case.seed c.Plaid_check.Case.dfg))
  | Stats | Metrics | Health | Evict _ | Quit -> Error "not a compile request"

let deadline_of = function
  | Map { deadline_ms; _ } | Compile { deadline_ms; _ } | Case { deadline_ms; _ } ->
    deadline_ms
  | Stats | Metrics | Health | Evict _ | Quit -> None

let verb_of = function
  | Map _ -> "map"
  | Compile _ -> "compile"
  | Case _ -> "case"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Health -> "health"
  | Evict _ -> "evict"
  | Quit -> "quit"

let health_line t =
  let s = Cache.stats t.cache in
  Printf.sprintf
    "ok uptime_s=%.1f requests=%d errors=%d cache_mem_hits=%d cache_disk_hits=%d \
     cache_misses=%d cache_corrupt=%d"
    (Plaid_obs.Trace.Clock.seconds_since t.started)
    (Atomic.get t.n_requests) (Atomic.get t.n_errors) s.Cache.hit_mem s.Cache.hit_disk
    s.Cache.miss s.Cache.corrupt

(* [queued_at] is when the request was read off the wire (or entered a
   batch); the gap to now is time spent waiting for a worker. *)
let handle ?queued_at t req =
  Plaid_obs.Metrics.incr m_requests;
  Atomic.incr t.n_requests;
  let t0 = Plaid_obs.Trace.Clock.now_ns () in
  (match queued_at with
  | None -> ()
  | Some tq ->
    Plaid_obs.Metrics.observe h_queue_wait_ms
      (Int64.to_float (Int64.sub t0 tq) /. 1e6));
  let finish resp =
    let elapsed_ms = Plaid_obs.Trace.Clock.seconds_since t0 *. 1000.0 in
    Plaid_obs.Metrics.observe h_request_ms elapsed_ms;
    (match resp with
    | Failure _ ->
      Plaid_obs.Metrics.incr m_errors;
      Atomic.incr t.n_errors
    | Payload _ -> ());
    if elapsed_ms > t.slow_ms then
      Plaid_obs.Log.warn ~sub:"serve"
        ~fields:
          [
            ("verb", verb_of req);
            ("ms", Printf.sprintf "%.1f" elapsed_ms);
            ("status", match resp with Payload _ -> "ok" | Failure _ -> "err");
          ]
        "slow request";
    resp
  in
  finish
  @@ Plaid_obs.Trace.with_span ~cat:"serve" "request"
       ~args:[ ("verb", verb_of req) ]
       ~result:(function
         | Payload { source = Some s; _ } -> [ ("source", Cache.source_to_string s) ]
         | Payload { source = None; _ } -> []
         | Failure _ -> [ ("status", "err") ])
  @@ fun () ->
  match req with
  | Stats ->
    Payload
      { source = None;
        payload = Format.asprintf "%a" Cache.pp_stats (Cache.stats t.cache) }
  | Metrics ->
    Payload
      { source = None;
        payload = Plaid_obs.Export.openmetrics (Plaid_obs.Metrics.snapshot ()) }
  | Health -> Payload { source = None; payload = health_line t }
  | Evict `All ->
    Cache.evict_all t.cache;
    Payload { source = None; payload = "evicted all" }
  | Evict (`Key k) -> (
    match Cache.evict t.cache ~key:k with
    | () -> Payload { source = None; payload = "evicted " ^ k }
    | exception Invalid_argument msg -> Failure msg)
  | Quit -> Payload { source = None; payload = "bye" }
  | (Map _ | Compile _ | Case _) as req -> (
    match prepare t req with
    | Error msg -> Failure msg
    | Ok (key, compute) -> (
      let computed_ms = ref 0.0 in
      let timed_compute () =
        let tc = Plaid_obs.Trace.Clock.now_ns () in
        Fun.protect
          ~finally:(fun () ->
            computed_ms := Plaid_obs.Trace.Clock.seconds_since tc *. 1000.0;
            Plaid_obs.Metrics.observe h_compute_ms !computed_ms)
          (fun () ->
            Plaid_obs.Trace.with_span ~cat:"serve" "compute" compute)
      in
      let tl = Plaid_obs.Trace.Clock.now_ns () in
      let blob, source =
        Plaid_obs.Trace.with_span ~cat:"serve" "cache"
          ~result:(fun (_, s) -> [ ("source", Cache.source_to_string s) ])
        @@ fun () -> Compile.lookup t.cache ~key timed_compute
      in
      (* cache-lookup time = tier walk (and any coalesced wait), minus the
         compute we timed separately *)
      Plaid_obs.Metrics.observe h_cache_ms
        (Float.max 0.0 ((Plaid_obs.Trace.Clock.seconds_since tl *. 1000.0) -. !computed_ms));
      let over_deadline =
        match deadline_of req with
        | None -> false
        | Some ms -> Plaid_obs.Trace.Clock.seconds_since t0 *. 1000.0 > float_of_int ms
      in
      if over_deadline then begin
        Plaid_obs.Metrics.incr m_deadline;
        Failure "deadline exceeded"
      end
      else
        match blob with
        | None | Some "" -> Failure "no mapping"
        | Some payload -> Payload { source = Some source; payload }))

let run_batch t reqs =
  Plaid_obs.Metrics.observe h_batch_size (float_of_int (List.length reqs));
  Plaid_obs.Metrics.observe h_queue_depth (float_of_int (List.length reqs));
  let queued_at = Plaid_obs.Trace.Clock.now_ns () in
  let tasks = List.map (fun r () -> handle ~queued_at t r) reqs in
  match t.pool with
  | Some pool -> Plaid_util.Pool.run pool tasks
  | None -> List.map (fun f -> f ()) tasks

let write_response oc resp =
  (match resp with
  | Payload { source; payload } ->
    let tag =
      match source with
      | None -> ""
      | Some s -> " source=" ^ Cache.source_to_string s
    in
    Printf.fprintf oc "ok %d%s\n" (String.length payload) tag;
    output_string oc payload;
    output_char oc '\n'
  | Failure msg -> Printf.fprintf oc "err %s\n" msg);
  flush oc
