(* Plaid_serve: fingerprints, the content-addressed store, the two-tier
   cache, and the batch compile service.

   The properties that make the cache safe to trust:
   - fingerprints are injective on semantic content and identical across
     processes (pinned digests guard the canonical forms);
   - a cached blob is bit-identical to the computed mapfile and still
     simulates bit-exactly after the round trip;
   - a flipped byte anywhere in a stored object is a verified miss — never
     a crash, never a wrong mapping — and recomputation heals it;
   - N racing requests for one key run the mapper once. *)

module F = Plaid_serve.Fingerprint
module Store = Plaid_serve.Store
module Cache = Plaid_serve.Cache
module Service = Plaid_serve.Service

let check = Alcotest.(check bool)

(* fresh scratch directory per call, without depending on unix *)
let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let f = Filename.temp_file "plaid_serve_test" (string_of_int !n) in
    Sys.remove f;
    f

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let flip_byte path pos =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 1));
  write_file path (Bytes.to_string s)

let fuzz_case i = Plaid_check.Fuzz.gen_case ~seed:Test_qc.seed i

let case_arch (c : Plaid_check.Case.t) = fst (Plaid_check.Case.build c)

let case_key (c : Plaid_check.Case.t) =
  F.key ~dfg:c.dfg ~arch:(case_arch c) ~mapper:"test" ~seed:c.seed

(* ---------------------------------------------------------- fingerprints *)

(* MD5 of a fixed string, pinned: if this moves, every deployed cache key
   changes silently. *)
let test_digest_pinned () =
  check "md5 primitive is stable"
    (F.digest_hex "plaid-cache-key" = "ae15448618a790c68da3fe8f58af153f")
    true

(* The full key for a fixed fuzz case, pinned to the literal another
   process computed.  This is the across-processes property made
   executable: any run of any build of this revision must produce these
   exact bytes.  (A deliberate change to the canonical forms must bump
   the Fingerprint version salt — update the pin alongside.) *)
let pinned_case_key = "e644f62548bc4f5a7e7f2ef928902e7d"

let test_key_pinned_across_processes () =
  (* fixed seed, NOT Test_qc.seed: the pin must not move under PLAID_QC_SEED *)
  let k = case_key (Plaid_check.Fuzz.gen_case ~seed:20250705 0) in
  if k <> pinned_case_key then
    Alcotest.failf "fingerprint drifted: got %s, pinned %s (version %s)" k pinned_case_key
      F.version

(* The key of every mapper configuration, for one fixed kernel on one fixed
   fabric (so only the mapper string varies), pinned to literals computed
   before the mapper strings were derived from typed configurations.  A
   renamed configuration would silently orphan every key cached under it. *)
let test_mapper_keys_pinned () =
  let module C = Plaid_serve.Compile in
  let arch = (Plaid_core.Fabrics.build St).arch in
  let plaid = Option.get (Plaid_core.Fabrics.build Plaid).pcu in
  let dfg = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "dwconv") in
  let pins =
    [ (C.Hier (plaid, Default), "f22a15b877c175d8a80344dadec34f25");
      (C.Hier (plaid, Quick), "b82bd6bf82607984849dbdaf492381e0");
      (C.Best_of Default, "f4e3864415d22fd0d618c1f4afd3050f");
      (C.Best_of Quick, "f8b6331a0449883039c26a03ff13cdc6");
      (C.Pf, "221699d7f32912ce95c3531b42bcb7cc");
      (C.Sa, "189ddc86ad4f7ccd68984d2f510619af") ]
  in
  List.iter
    (fun (mapper, want) ->
      let got = C.key mapper ~arch ~dfg ~seed:2025 in
      if got <> want then
        Alcotest.failf "%s: key drifted: got %s, pinned %s" (C.name mapper) got want)
    pins;
  let names = List.map (fun (m, _) -> C.name m) pins in
  check "mapper names pairwise distinct"
    (List.length (List.sort_uniq compare names) = List.length names)
    true

let test_key_well_formed () =
  let k = case_key (fuzz_case 1) in
  check "32 chars" (String.length k = 32) true;
  String.iter
    (fun c ->
      check "lowercase hex" ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) true)
    k;
  check "recomputation is stable" (case_key (fuzz_case 1) = k) true

(* Distinct semantic content gives distinct keys; identical content gives
   identical keys — over the fuzz generators, the same distribution the
   differential campaigns draw from. *)
let qc_fingerprint_injective =
  QCheck.Test.make ~count:40 ~name:"fingerprint injectivity on fuzz cases"
    QCheck.(pair (int_bound 24) (int_bound 24))
    (fun (i, j) ->
      let ci = fuzz_case i and cj = fuzz_case j in
      let canon (c : Plaid_check.Case.t) =
        ( Plaid_mapping.Mapfile.dfg_to_lines c.dfg,
          Plaid_arch.Arch.fingerprint_lines (case_arch c),
          c.seed )
      in
      if canon ci = canon cj then case_key ci = case_key cj
      else case_key ci <> case_key cj)

let qc_fingerprint_salts =
  QCheck.Test.make ~count:20 ~name:"mapper and seed are part of the key"
    QCheck.(int_bound 24)
    (fun i ->
      let c = fuzz_case i in
      let arch = case_arch c in
      let k = F.key ~dfg:c.dfg ~arch ~mapper:"a" ~seed:7 in
      k <> F.key ~dfg:c.dfg ~arch ~mapper:"b" ~seed:7
      && k <> F.key ~dfg:c.dfg ~arch ~mapper:"a" ~seed:8)

let lines_digest a = F.digest_hex (String.concat "\n" (Plaid_arch.Arch.fingerprint_lines a))

(* The digest is cached on the value; caching must not change a byte of
   any key, before or after the cache fills. *)
let test_arch_digest_matches_lines () =
  List.iter
    (fun f ->
      let a = (Plaid_core.Fabrics.build f).arch and name = Plaid_core.Fabrics.name f in
      let want = lines_digest a in
      check (name ^ ": first use") (F.arch a = want) true;
      check (name ^ ": cached") (F.arch a = want) true)
    Plaid_core.Fabrics.all

(* Every derived value re-describes itself: a copy with another config
   depth or fault set must not inherit its parent's cached digest. *)
let test_arch_digest_invalidated () =
  let module A = Plaid_arch.Arch in
  let a = (Plaid_core.Fabrics.build St).arch in
  let parent = F.arch a in
  let deeper = A.set_config a { a.A.config with A.entries = a.A.config.A.entries + 1 } in
  check "set_config: own lines" (F.arch deeper = lines_digest deeper) true;
  check "set_config: differs from parent" (F.arch deeper <> parent) true;
  let faulted = A.set_faults a [ A.Dead_fu a.A.fus.(0) ] in
  check "set_faults: own lines" (F.arch faulted = lines_digest faulted) true;
  check "set_faults: differs from parent" (F.arch faulted <> parent) true;
  check "parent unchanged" (F.arch a = lines_digest a) true

let test_arch_digest_racing_domains () =
  let a = (Plaid_core.Fabrics.build Plaid).arch in
  let digests =
    List.init 4 (fun _ -> Domain.spawn (fun () -> F.arch a)) |> List.map Domain.join
  in
  List.iter (fun d -> check "every domain agrees" (d = lines_digest a) true) digests

(* ------------------------------------------------------------------ store *)

let test_store_roundtrip () =
  let st = Store.open_dir (temp_dir ()) in
  let key = F.digest_hex "k1" and payload = "hello\nblob \x00 bytes" in
  Store.put st ~key payload;
  (match Store.get st ~key with
  | Store.Hit p -> check "payload round-trips" (p = payload) true
  | Store.Miss | Store.Corrupt -> Alcotest.fail "expected a hit");
  check "missing key is a miss" (Store.get st ~key:(F.digest_hex "k2") = Store.Miss) true;
  let s = Store.stats st in
  check "one entry" (s.Store.entries = 1) true

let test_store_detects_corruption () =
  let st = Store.open_dir (temp_dir ()) in
  let key = F.digest_hex "k1" in
  Store.put st ~key "payload payload payload";
  (* flip one payload byte: digest check must catch it *)
  flip_byte (Store.path st ~key) 40;
  check "flipped byte reads as corrupt" (Store.get st ~key = Store.Corrupt) true;
  let v = Store.verify st in
  check "verify counts it" (v.Store.v_corrupt = [ key ]) true;
  (* truncation is also corruption, not a crash *)
  let key2 = F.digest_hex "k2" in
  Store.put st ~key:key2 "0123456789";
  let p2 = Store.path st ~key:key2 in
  write_file p2 (String.sub (read_file p2) 0 (String.length (read_file p2) - 3));
  check "truncated object reads as corrupt" (Store.get st ~key:key2 = Store.Corrupt) true;
  (* garbage that never had a header *)
  let key3 = F.digest_hex "k3" in
  Store.put st ~key:key3 "x";
  write_file (Store.path st ~key:key3) "not a blob at all";
  check "foreign file reads as corrupt" (Store.get st ~key:key3 = Store.Corrupt) true

let test_store_gc () =
  let st = Store.open_dir (temp_dir ()) in
  let keep = F.digest_hex "keep" and bad = F.digest_hex "bad" in
  Store.put st ~key:keep "kept payload";
  Store.put st ~key:bad "doomed payload";
  flip_byte (Store.path st ~key:bad) 40;
  (* a stale tmp file, as left by a writer killed mid-write *)
  write_file (Filename.concat (Store.root st) "tmp/999.0.tmp") "partial";
  let g = Store.gc st in
  check "gc removed the corrupt entry" (g.Store.g_corrupt = 1) true;
  check "gc removed the stale tmp" (g.Store.g_tmp = 1) true;
  let v = Store.verify st in
  check "store is clean after gc" (v.Store.v_corrupt = [] && v.Store.v_tmp = 0) true;
  check "live entry survived" (Store.get st ~key:keep = Store.Hit "kept payload") true;
  (* byte budget: evict down to nothing but the newest *)
  Store.put st ~key:bad "restored";
  let g = Store.gc ~max_bytes:1 st in
  check "budget eviction ran" (g.Store.g_evicted >= 1) true

let test_store_rejects_bad_keys () =
  let st = Store.open_dir (temp_dir ()) in
  List.iter
    (fun key ->
      match Store.path st ~key with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "key %S should be rejected" key)
    [ ""; "Z"; "../../etc/passwd"; "ABCDEF"; "ab/cd" ]

(* ------------------------------------------------------------------ cache *)

let test_cache_two_tiers () =
  let dir = temp_dir () in
  let c = Cache.create ~dir () in
  let key = F.digest_hex "k" in
  Cache.put c ~key "blob";
  (match Cache.find c ~key with
  | Some ("blob", Cache.Mem) -> ()
  | _ -> Alcotest.fail "expected a memory hit");
  (* a fresh cache over the same directory sees only the disk tier *)
  let c2 = Cache.create ~dir () in
  (match Cache.find c2 ~key with
  | Some ("blob", Cache.Disk) -> ()
  | _ -> Alcotest.fail "expected a disk hit");
  (* ...and the disk hit was promoted to memory *)
  match Cache.find c2 ~key with
  | Some ("blob", Cache.Mem) -> ()
  | _ -> Alcotest.fail "expected promotion to the memory tier"

let test_cache_corruption_is_a_miss () =
  let dir = temp_dir () in
  let c = Cache.create ~dir () in
  let key = F.digest_hex "k" in
  Cache.put c ~key "precious payload";
  let store = Option.get (Cache.store c) in
  flip_byte (Store.path store ~key) 40;
  Plaid_obs.Metrics.reset ();
  Plaid_obs.Metrics.set_enabled true;
  let c2 = Cache.create ~dir () in
  Fun.protect ~finally:(fun () -> Plaid_obs.Metrics.set_enabled false) @@ fun () ->
  check "corrupt disk entry is a miss" (Cache.find c2 ~key = None) true;
  check "cache counted the corruption" ((Cache.stats c2).Cache.corrupt = 1) true;
  let snap = Plaid_obs.Metrics.snapshot () in
  check "cache_corrupt metric bumped"
    (List.assoc_opt "cache_corrupt" snap.Plaid_obs.Metrics.counters = Some 1)
    true;
  (* recomputation heals the entry in place *)
  let blob, source = Cache.get_or_compute c2 ~key (fun () -> Some "recomputed") in
  check "compute ran" (blob = Some "recomputed" && source = Cache.Computed) true;
  let c3 = Cache.create ~dir () in
  check "healed entry verifies again"
    (Cache.find c3 ~key = Some ("recomputed", Cache.Disk))
    true

let test_cache_negative_not_cached () =
  let c = Cache.create () in
  let key = F.digest_hex "k" in
  let calls = ref 0 in
  let compute () = incr calls; None in
  check "negative result delivered" (Cache.get_or_compute c ~key compute = (None, Cache.Computed)) true;
  let _ = Cache.get_or_compute c ~key compute in
  check "negative result retried" (!calls = 2) true

let test_cache_lru_eviction () =
  (* memory-only cache with room for ~2 of our 8-byte payloads *)
  let c = Cache.create ~mem_budget:20 () in
  let key i = F.digest_hex (string_of_int i) in
  for i = 1 to 5 do
    Cache.put c ~key:(key i) "01234567"
  done;
  let s = Cache.stats c in
  check "budget held" (s.Cache.mem_bytes <= 20) true;
  check "evictions counted" (s.Cache.evicted = 3) true;
  check "newest entry survives" (Cache.find c ~key:(key 5) <> None) true;
  check "oldest entry evicted" (Cache.find c ~key:(key 1) = None) true

let test_cache_single_flight () =
  let c = Cache.create () in
  let key = F.digest_hex "k" in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    (* widen the race window so waiters actually coalesce *)
    let rec spin n = if n > 0 then spin (n - 1) in
    spin 2_000_000;
    Some "the one result"
  in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Cache.get_or_compute c ~key compute))
  in
  let results = List.map Domain.join domains in
  check "compute ran exactly once" (Atomic.get computes = 1) true;
  List.iter
    (fun (blob, _) -> check "every caller got the result" (blob = Some "the one result") true)
    results;
  let s = Cache.stats c in
  check "three callers were served without computing"
    (s.Cache.coalesced + s.Cache.hit_mem = 3)
    true

(* A pool waiter runs queued tasks on its own stack, so a compute can ask
   for a key in flight on its own domain: its own key, or one whose owner
   is in turn asking for this one.  Waiting there never ends, so such a
   caller computes the key itself.  Both cases run in spawned domains, so a
   hang fails the test instead of stalling the suite. *)
let test_cache_nested_compute () =
  let within_10s f =
    let out = Atomic.make None in
    let d = Domain.spawn (fun () -> Atomic.set out (Some (f ()))) in
    let t0 = Plaid_obs.Trace.Clock.now_ns () in
    while Atomic.get out = None && Plaid_obs.Trace.Clock.seconds_since t0 < 10.0 do
      Domain.cpu_relax ()
    done;
    (* a hung domain is left behind: joining it would hang the suite *)
    if Atomic.get out <> None then Domain.join d;
    Atomic.get out
  in
  let c = Cache.create () in
  let k = F.digest_hex "own" in
  let own () =
    Cache.get_or_compute c ~key:k (fun () ->
        fst (Cache.get_or_compute c ~key:k (fun () -> Some "own")))
  in
  check "a compute asking for its own key gets it"
    (within_10s own = Some (Some "own", Cache.Computed))
    true;
  (* two owners, each asking for the other's key once both are in flight *)
  let inside = Atomic.make 0 in
  let crossed mine theirs () =
    let got = ref None in
    let blob, _ =
      Cache.get_or_compute c ~key:(F.digest_hex mine) (fun () ->
          Atomic.incr inside;
          while Atomic.get inside < 2 do
            Domain.cpu_relax ()
          done;
          got := fst (Cache.get_or_compute c ~key:(F.digest_hex theirs) (fun () -> Some theirs));
          Some mine)
    in
    (blob, !got)
  in
  let both () =
    let d = Domain.spawn (crossed "b" "a") in
    let a = crossed "a" "b" () in
    (a, Domain.join d)
  in
  check "owners asking for each other's keys both finish"
    (within_10s both = Some ((Some "a", Some "b"), (Some "b", Some "a")))
    true

(* ------------------------------------- service: mapping blob round trip *)

let dir_service () =
  let cache = Cache.create ~dir:(temp_dir ()) () in
  (cache, Service.create ~cache ())

let map_req ?deadline_ms ?(seed = 2025) ?(arch = "plaid") kernel =
  Service.Map { kernel; arch; seed; deadline_ms }

let payload_of = function
  | Service.Payload { payload; source } -> (payload, source)
  | Service.Failure msg -> Alcotest.failf "request failed: %s" msg

let test_service_roundtrip_simulates () =
  let cache, svc = dir_service () in
  let blob, source = payload_of (Service.handle svc (map_req "dwconv")) in
  check "first request computes" (source = Some Cache.Computed) true;
  let blob2, source2 = payload_of (Service.handle svc (map_req "dwconv")) in
  check "repeat is a memory hit" (source2 = Some Cache.Mem) true;
  check "repeat is bit-identical" (blob2 = blob) true;
  (* a different process over the same store: disk hit, same bytes *)
  let svc2 = Service.create ~cache:(Cache.create ~dir:(Option.get (Cache.store cache) |> Store.root) ()) () in
  let blob3, source3 = payload_of (Service.handle svc2 (map_req "dwconv")) in
  check "fresh cache hits disk" (source3 = Some Cache.Disk) true;
  check "disk blob is bit-identical" (blob3 = blob) true;
  (* the cached blob is a loadable mapping that still simulates bit-exactly *)
  let entry = Plaid_workloads.Suite.find "dwconv" in
  let plaid = Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"plaid_2x2" () in
  let resolve n = if n = "plaid_2x2" then Some plaid.Plaid_core.Pcu.arch else None in
  match Plaid_mapping.Mapfile.of_string ~resolve blob with
  | Error e -> Alcotest.failf "cached blob does not parse: %s" e
  | Ok m -> (
    let k =
      Plaid_ir.Unroll.apply entry.Plaid_workloads.Suite.base entry.Plaid_workloads.Suite.unroll
    in
    let spm =
      Plaid_sim.Spm.of_kernel k ~params:(Plaid_workloads.Suite.params entry) ~seed:77
    in
    match Plaid_sim.Cycle_sim.verify m spm with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "cached mapping no longer simulates: %s" e)

(* The experiment context and the service derive the same key for the same
   request: a mapping Ctx cached is a disk hit for the service, byte for
   byte the Mapfile text of what Ctx returned. *)
let test_ctx_and_service_share_keys () =
  let dir = temp_dir () in
  let ctx = Plaid_exp.Ctx.create ~cache:(Cache.create ~dir ()) () in
  let m =
    match Plaid_exp.Ctx.map ctx St (Plaid_workloads.Suite.find "dwconv") with
    | Some m -> m
    | None -> Alcotest.fail "dwconv does not map on st"
  in
  let svc = Service.create ~cache:(Cache.create ~dir ()) () in
  let blob, source = payload_of (Service.handle svc (map_req ~arch:"st" "dwconv")) in
  check "service hits the store Ctx wrote" (source = Some Cache.Disk) true;
  check "same bytes as the Ctx mapping" (blob = Plaid_mapping.Mapfile.to_string m) true

let test_service_deadline () =
  let _, svc = dir_service () in
  (* gemm_u2 on the ST mesh takes hundreds of ms to map: a 1 ms deadline
     must trip, but the blob still lands in the cache for the next caller *)
  (match Service.handle svc (map_req ~deadline_ms:1 ~seed:4242 ~arch:"st" "gemm_u2") with
  | Service.Failure "deadline exceeded" -> ()
  | Service.Failure msg -> Alcotest.failf "expected a deadline failure, got: %s" msg
  | Service.Payload _ -> Alcotest.fail "a 1 ms deadline did not trip");
  let _, source = payload_of (Service.handle svc (map_req ~seed:4242 ~arch:"st" "gemm_u2")) in
  check "late blob was cached anyway" (source = Some Cache.Mem) true

let test_service_errors () =
  let _, svc = dir_service () in
  (match Service.handle svc (map_req "nosuch") with
  | Service.Failure msg -> check "unknown kernel named" (msg = "unknown kernel nosuch") true
  | Service.Payload _ -> Alcotest.fail "unknown kernel must fail");
  (match Service.handle svc (map_req ~arch:"warp" "dwconv") with
  | Service.Failure _ -> ()
  | Service.Payload _ -> Alcotest.fail "unknown arch must fail");
  match Service.handle svc (Service.Case { file = "/nonexistent.case"; deadline_ms = None }) with
  | Service.Failure _ -> ()
  | Service.Payload _ -> Alcotest.fail "unreadable case file must fail"

(* A kernel that parses but fails lowering is a request error, not a
   crash: the server answers it and keeps serving. *)
let test_service_lowering_error () =
  let _, svc = dir_service () in
  let file = temp_dir () ^ ".plc" in
  write_file file
    "kernel k1 trip 8 { carry acc = 0; acc = acc + x[i]; acc = acc + 1; out[0] = acc; }\n";
  let req = Service.Compile { file; arch = "st"; seed = 2025; deadline_ms = None } in
  (match Service.handle svc req with
  | Service.Failure msg ->
    Alcotest.(check string)
      "lowering error named" (file ^ ": Lower k1: carry acc assigned twice") msg
  | Service.Payload _ -> Alcotest.fail "a kernel that fails lowering must fail");
  Sys.remove file;
  match Service.handle svc Service.Health with
  | Service.Payload _ -> ()
  | Service.Failure msg -> Alcotest.failf "service stopped answering: %s" msg

let test_service_parse () =
  let bad l =
    match Service.parse_request l with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "request %S should not parse" l
  in
  bad "";
  bad "map";
  bad "map kernel";
  bad "map kernel=x frob=1";
  bad "map kernel=x deadline-ms=0";
  bad "map kernel=x seed=abc";
  bad "warp kernel=x";
  bad "evict";
  (match Service.parse_request "map kernel=dwconv" with
  | Ok (Service.Map { kernel = "dwconv"; arch = "plaid"; seed = 2025; deadline_ms = None }) -> ()
  | _ -> Alcotest.fail "map defaults wrong");
  match Service.parse_request "evict all" with
  | Ok (Service.Evict `All) -> ()
  | _ -> Alcotest.fail "evict all did not parse"

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* The service-grade verbs: [metrics] must answer a valid OpenMetrics
   exposition whose request-latency buckets and cache counters reflect the
   traffic just served; [health] must answer the documented one-liner with
   tallies agreeing with the cache stats. *)
let test_service_metrics_and_health_verbs () =
  let _, svc = dir_service () in
  Plaid_obs.Metrics.reset ();
  Plaid_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Plaid_obs.Metrics.set_enabled false;
      Plaid_obs.Metrics.reset ())
  @@ fun () ->
  ignore (Service.handle svc (map_req "dwconv"));
  ignore (Service.handle svc (map_req "dwconv"));
  let text, source = payload_of (Service.handle svc Service.Metrics) in
  check "metrics reply is administrative" (source = None) true;
  (match Plaid_obs.Export.check_openmetrics text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "metrics payload is not valid OpenMetrics: %s\n%s" e text);
  check "request latency buckets exported"
    (contains text "plaid_serve_request_ms_bucket{le=")
    true;
  check "cache miss counter exported" (contains text "plaid_cache_miss_total 1") true;
  check "cache mem-hit counter exported" (contains text "plaid_cache_hit_mem_total 1") true;
  let line, hsource = payload_of (Service.handle svc Service.Health) in
  check "health reply is administrative" (hsource = None) true;
  Scanf.sscanf line
    "ok uptime_s=%f requests=%d errors=%d cache_mem_hits=%d cache_disk_hits=%d \
     cache_misses=%d cache_corrupt=%d"
    (fun up reqs errs mem disk miss corrupt ->
      check "uptime non-negative" (up >= 0.0) true;
      (* two maps + the metrics verb + this health request *)
      check "request tally counts every verb" (reqs = 4) true;
      check "no errors" (errs = 0) true;
      check "health agrees with cache stats"
        (let s = Cache.stats (Service.cache svc) in
         mem = s.Cache.hit_mem && disk = s.Cache.hit_disk && miss = s.Cache.miss
         && corrupt = s.Cache.corrupt)
        true);
  (* both verbs parse off the wire *)
  (match Service.parse_request "metrics" with
  | Ok Service.Metrics -> ()
  | _ -> Alcotest.fail "metrics verb did not parse");
  match Service.parse_request "health" with
  | Ok Service.Health -> ()
  | _ -> Alcotest.fail "health verb did not parse"

let test_service_batch_coalesces () =
  let _, svc = dir_service () in
  let reqs = [ map_req "dwconv"; map_req "dwconv"; map_req "dwconv" ] in
  let resps = Service.run_batch svc reqs in
  let payloads = List.map payload_of resps in
  (match payloads with
  | (b1, _) :: rest -> List.iter (fun (b, _) -> check "batch agrees" (b = b1) true) rest
  | [] -> Alcotest.fail "empty batch result");
  let s = Cache.stats (Service.cache svc) in
  check "one compute for three identical requests"
    (s.Cache.miss = 1 && s.Cache.hit_mem + s.Cache.coalesced = 2)
    true

(* Telemetry is out of band on the hot path: the same warm batch with the
   registry disarmed and then armed answers byte-identical payloads, every
   one a memory hit. *)
let test_service_warm_batch_metrics_invariant () =
  let _, svc = dir_service () in
  let reqs = [ map_req "dwconv"; map_req "jacobi"; map_req ~arch:"st" "dwconv" ] in
  ignore (Service.run_batch svc reqs);
  let armed = Plaid_obs.Metrics.enabled () in
  Plaid_obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Plaid_obs.Metrics.set_enabled armed;
      Plaid_obs.Metrics.reset ())
  @@ fun () ->
  let warm metrics =
    Plaid_obs.Metrics.set_enabled metrics;
    List.map payload_of (Service.run_batch svc reqs)
  in
  let off = warm false in
  let on = warm true in
  check "every warm request is a memory hit"
    (List.for_all (fun (_, source) -> source = Some Cache.Mem) (off @ on))
    true;
  check "armed pass counted its hits"
    (List.assoc_opt "cache_hit_mem" (Plaid_obs.Metrics.snapshot ()).Plaid_obs.Metrics.counters
    = Some (List.length reqs))
    true;
  check "payloads byte-identical with metrics off and on" (List.map fst off = List.map fst on)
    true

let suites =
  [
    ( "serve-fingerprint",
      [
        Alcotest.test_case "digest primitive pinned" `Quick test_digest_pinned;
        Alcotest.test_case "key pinned across processes" `Quick test_key_pinned_across_processes;
        Alcotest.test_case "key well-formed and stable" `Quick test_key_well_formed;
        Alcotest.test_case "mapper keys pinned" `Quick test_mapper_keys_pinned;
        Test_qc.to_alcotest qc_fingerprint_injective;
        Test_qc.to_alcotest qc_fingerprint_salts;
        Alcotest.test_case "arch digest equals its lines" `Quick test_arch_digest_matches_lines;
        Alcotest.test_case "arch digest fresh per config and faults" `Quick
          test_arch_digest_invalidated;
        Alcotest.test_case "arch digest agrees across domains" `Quick
          test_arch_digest_racing_domains;
      ] );
    ( "serve-store",
      [
        Alcotest.test_case "blob round trip" `Quick test_store_roundtrip;
        Alcotest.test_case "corruption detected" `Quick test_store_detects_corruption;
        Alcotest.test_case "gc sweeps corruption and tmp" `Quick test_store_gc;
        Alcotest.test_case "bad keys rejected" `Quick test_store_rejects_bad_keys;
      ] );
    ( "serve-cache",
      [
        Alcotest.test_case "two tiers" `Quick test_cache_two_tiers;
        Alcotest.test_case "corruption is a verified miss" `Quick test_cache_corruption_is_a_miss;
        Alcotest.test_case "negative results not cached" `Quick test_cache_negative_not_cached;
        Alcotest.test_case "lru respects the byte budget" `Quick test_cache_lru_eviction;
        Alcotest.test_case "single-flight coalescing" `Quick test_cache_single_flight;
        Alcotest.test_case "nested computes never wait on a flight" `Quick
          test_cache_nested_compute;
      ] );
    ( "serve-service",
      [
        Alcotest.test_case "blob round trip simulates bit-exactly" `Slow
          test_service_roundtrip_simulates;
        Alcotest.test_case "Ctx and service share keys" `Slow test_ctx_and_service_share_keys;
        Alcotest.test_case "deadlines trip but still cache" `Slow test_service_deadline;
        Alcotest.test_case "request errors" `Quick test_service_errors;
        Alcotest.test_case "lowering errors are answered" `Quick test_service_lowering_error;
        Alcotest.test_case "protocol parsing" `Quick test_service_parse;
        Alcotest.test_case "metrics and health verbs" `Quick
          test_service_metrics_and_health_verbs;
        Alcotest.test_case "batches coalesce" `Quick test_service_batch_coalesces;
        Alcotest.test_case "warm batch independent of metrics" `Quick
          test_service_warm_batch_metrics_invariant;
      ] );
  ]
