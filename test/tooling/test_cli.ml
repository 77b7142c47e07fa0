(* End-to-end gate for the plaidc observability surface, run from
   `dune runtest`:

   - `plaidc map --trace --metrics` must exit 0 and write a trace that is
     valid Chrome trace-event JSON with at least one span from every
     instrumented subsystem (driver, pf, sa, pool, sim);
   - an unreadable, truncated, or corrupted mapping file must be rejected
     by the loader with one line on stderr and the uniform bad-input
     exit 2; with --no-validate a corrupted file must reach the simulator
     and take the simulation-MISMATCH path: message on stderr, nothing on
     stdout, exit 1;
   - `plaidc serve` must answer a replayed request from the store on the
     second pass (no recompute, byte-identical payload, equal to what
     `plaidc map -o` writes), `plaidc cache` must report/verify/heal the
     store, and `plaidc --version` must carry the fingerprint salt;
   - a kernel that parses but fails lowering must be one stderr line and
     exit 1 from `plaidc compile`, and an `err` reply from `plaidc serve`,
     which keeps answering;
   - `plaidc faults` must emit a valid JSON campaign report that is
     byte-identical for -j 1 and -j 4, exit 1 with MISMATCH lines on
     stderr when unrepaired faulty mappings mis-simulate, and exit 0 in
     repair mode once every surviving mapping verifies;
   - `plaidc fuzz` must exit 0 on a clean campaign, produce byte-identical
     reports at every worker count, and dump one replayable case file per
     trial under --dump-cases;
   - `plaidc dse` must run a tiny campaign deterministically (byte-equal
     reports at -j 1 and -j 4, valid JSON with --json -), and reject bad
     space/suite/strategy names, malformed budgets, conflicting strategy
     flags, and unreadable space files with one stderr line and exit 2;
   - `plaidc map -a @FILE.adl` must take the named-fabric path (saved
     mapfile, --viz, bit-exact simulation line), and `plaidc run` on that
     file must reject the fabric it cannot resolve with exit 2;
   - `plaidc map -a spatial --report` must say how many segments mapped;
   - `plaidc map` must print the recorded pricing lines, and `compile`
     and `run` must refuse a simulation past the work bound with one
     stderr line and exit 1;
   - unknown subcommands, unknown flags, unknown `-a` names (map, compile,
     rtl, faults: choices on stderr, nothing on stdout), and out-of-range
     argument values (negative counts, -j 0) must exit 2 with a diagnostic
     on stderr. *)

let plaidc = Sys.argv.(1)

let adl_file = Sys.argv.(2)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "FAIL: %s\n%!" s)
    fmt

let sh fmt = Printf.ksprintf (fun cmd -> Sys.command cmd) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- traced map run ---------------------------------------------------- *)

let () =
  (* atax_u4: PathFinder misses MII on st_4x4, so best_of still anneals
     and the trace carries sa spans *)
  let rc =
    sh "%s map -k atax_u4 -a st -j 2 --trace trace.json --metrics -o atax.map > map.out 2> map.err"
      plaidc
  in
  if rc <> 0 then fail "traced map exited %d" rc;
  if not (contains ~needle:"bit-exact" (read_file "map.out")) then
    fail "traced map did not report a verified simulation";
  let err = read_file "map.err" in
  if not (contains ~needle:"-- metrics --" err) then fail "--metrics printed no summary";
  if not (contains ~needle:"trace:" err) then fail "--trace printed no confirmation";
  match Plaid_obs.Json.of_string (String.trim (read_file "trace.json")) with
  | Error e -> fail "trace.json is not valid JSON: %s" e
  | Ok doc ->
    let events =
      match Plaid_obs.Json.member "traceEvents" doc with
      | Some evs -> Plaid_obs.Json.to_list evs
      | None -> []
    in
    if events = [] then fail "trace.json has no traceEvents";
    let cat_of ev =
      Option.bind (Plaid_obs.Json.member "cat" ev) Plaid_obs.Json.str
    in
    List.iter
      (fun subsystem ->
        let n = List.length (List.filter (fun ev -> cat_of ev = Some subsystem) events) in
        if n = 0 then fail "no spans from subsystem %S in trace.json" subsystem)
      [ "driver"; "pf"; "sa"; "pool"; "sim" ]

(* --- corrupted mapping ------------------------------------------------- *)

let () =
  (* break node 0's schedule time so the replayed event order is wrong *)
  let corrupted =
    String.split_on_char '\n' (read_file "atax.map")
    |> List.map (fun line ->
           if String.length line >= 7 && String.sub line 0 7 = "time 0 " then "time 0 9999"
           else line)
    |> String.concat "\n"
  in
  let oc = open_out "atax_bad.map" in
  output_string oc corrupted;
  close_out oc;
  (* the validating loader must reject it: one stderr line, exit 2 *)
  let rc = sh "%s run -f atax_bad.map > bad.out 2> bad.err" plaidc in
  if rc <> 2 then fail "corrupted mapfile: expected load failure (exit 2), got %d" rc;
  if String.trim (read_file "bad.out") <> "" then
    fail "corrupted-mapfile diagnostic leaked to stdout";
  (match String.split_on_char '\n' (String.trim (read_file "bad.err")) with
  | [ line ] ->
    if not (contains ~needle:"atax_bad.map" line) then
      fail "corrupted-mapfile diagnostic does not name the file"
  | lines -> fail "corrupted mapfile: expected one stderr line, got %d" (List.length lines));
  (* unreadable and truncated inputs take the same one-line exit-2 path *)
  let rc = sh "%s run -f nonexistent.map > miss.out 2> miss.err" plaidc in
  if rc <> 2 then fail "missing mapfile: expected exit 2, got %d" rc;
  if String.trim (read_file "miss.err") = "" then
    fail "missing mapfile printed nothing on stderr";
  let atax = read_file "atax.map" in
  let oc = open_out "atax_cut.map" in
  output_string oc (String.sub atax 0 (String.length atax / 2));
  close_out oc;
  let rc = sh "%s run -f atax_cut.map > cut.out 2> cut.err" plaidc in
  if rc <> 2 then fail "truncated mapfile: expected exit 2, got %d" rc;
  let rc = sh "%s compile -f nonexistent.k > nok.out 2> nok.err" plaidc in
  if rc <> 2 then fail "missing kernel source: expected exit 2, got %d" rc;
  (* with validation skipped it must reach the simulator and mismatch *)
  let rc = sh "%s run -f atax_bad.map --no-validate > bad2.out 2> bad2.err" plaidc in
  if rc <> 1 then fail "--no-validate on corrupted mapfile: expected exit 1, got %d" rc;
  if not (contains ~needle:"simulation MISMATCH" (read_file "bad2.err")) then
    fail "mismatch message missing from stderr";
  if contains ~needle:"MISMATCH" (read_file "bad2.out") then
    fail "mismatch message leaked to stdout";
  (* and the pristine file still verifies cleanly *)
  let rc = sh "%s run -f atax.map > good.out 2> good.err" plaidc in
  if rc <> 0 then fail "pristine mapfile: expected exit 0, got %d" rc

(* --- fault campaigns --------------------------------------------------- *)

let () =
  (* detection campaign: the report is machine-readable, deterministic in
     the worker count, and mismatches are signalled out-of-band *)
  let campaign = "faults -k doitgen_u2 -a st --seed 3 --faults 2 --trials 6" in
  let rc = sh "%s %s --json - -j 1 > faults1.json 2> faults1.err" plaidc campaign in
  if rc <> 1 then fail "detection campaign with affected trials: expected exit 1, got %d" rc;
  if not (contains ~needle:"MISMATCH" (read_file "faults1.err")) then
    fail "detection campaign printed no MISMATCH line on stderr";
  if contains ~needle:"MISMATCH" (read_file "faults1.json") then
    fail "MISMATCH diagnostics leaked into the JSON report";
  (match Plaid_obs.Json.of_string (String.trim (read_file "faults1.json")) with
  | Error e -> fail "campaign report is not valid JSON: %s" e
  | Ok doc ->
    List.iter
      (fun key ->
        if Plaid_obs.Json.member key doc = None then
          fail "campaign report is missing %S" key)
      [ "arch"; "kernel"; "yield"; "ii_degradation"; "detected"; "trial_results" ]);
  let _ = sh "%s %s --json - -j 4 > faults4.json 2> /dev/null" plaidc campaign in
  if read_file "faults1.json" <> read_file "faults4.json" then
    fail "campaign report differs between -j 1 and -j 4";
  (* repair campaign: every surviving mapping verifies, so the exit is clean *)
  let rc = sh "%s %s --repair --json - -j 2 > repair.json 2> repair.err" plaidc campaign in
  if rc <> 0 then fail "repair campaign: expected exit 0, got %d" rc

(* --- fuzz campaigns ---------------------------------------------------- *)

let () =
  (* a clean campaign exits 0 and the report is byte-identical in -j *)
  let rc = sh "%s fuzz --trials 10 --seed 9 -j 1 > fuzz1.out 2> fuzz1.err" plaidc in
  if rc <> 0 then fail "fuzz campaign: expected exit 0, got %d" rc;
  let out = read_file "fuzz1.out" in
  if not (contains ~needle:"summary: 10 trials" out) then
    fail "fuzz report is missing the trial summary";
  if not (contains ~needle:"feasibility:" out) then
    fail "fuzz report is missing the per-mapper feasibility line";
  let _ = sh "%s fuzz --trials 10 --seed 9 -j 3 > fuzz3.out 2> /dev/null" plaidc in
  if read_file "fuzz3.out" <> out then fail "fuzz report differs between -j 1 and -j 3";
  (* --dump-cases writes one replayable file per trial *)
  let rc = sh "%s fuzz --trials 3 --seed 9 --dump-cases fuzzcases > dump.out 2> dump.err" plaidc in
  if rc <> 0 then fail "fuzz --dump-cases: expected exit 0, got %d" rc;
  let dumped =
    Sys.readdir "fuzzcases" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
  in
  if List.length dumped <> 3 then
    fail "fuzz --dump-cases wrote %d case files (want 3)" (List.length dumped)

(* --- serving & caching ------------------------------------------------- *)

(* payload bytes of the first ok-framed response in a protocol transcript *)
let first_payload out =
  match String.index_opt out '\n' with
  | None -> ""
  | Some i -> (
    match String.split_on_char ' ' (String.sub out 0 i) with
    | "ok" :: len :: _ -> (
      match int_of_string_opt len with
      | Some n when i + 1 + n <= String.length out -> String.sub out (i + 1) n
      | _ -> "")
    | _ -> "")

let () =
  (* --version carries the fingerprint salt, so operators can correlate
     cache generations with builds *)
  let rc = sh "%s --version > ver.out 2> ver.err" plaidc in
  if rc <> 0 then fail "--version exited %d" rc;
  if not (contains ~needle:"plaidmap-1" (read_file "ver.out")) then
    fail "--version does not carry the cache fingerprint salt";
  (* two-pass protocol replay over one store: the second pass must be
     served from disk (no recompute) with a byte-identical payload, and
     the payload must equal the mapfile the one-shot CLI wrote *)
  let oc = open_out "serve.req" in
  output_string oc "map kernel=atax_u4 arch=st seed=2025\nquit\n";
  close_out oc;
  let rc = sh "%s serve --cache-dir srvcache < serve.req > pass1.out 2> serve1.err" plaidc in
  if rc <> 0 then fail "serve pass 1 exited %d" rc;
  let rc =
    sh "%s serve --cache-dir srvcache --metrics < serve.req > pass2.out 2> serve2.err" plaidc
  in
  if rc <> 0 then fail "serve pass 2 exited %d" rc;
  let p1 = read_file "pass1.out" and p2 = read_file "pass2.out" in
  if not (contains ~needle:"source=compute" p1) then
    fail "serve pass 1 did not report a compute";
  if contains ~needle:"source=compute" p2 then
    fail "serve pass 2 recomputed a cached mapping";
  if not (contains ~needle:"source=disk" p2) then
    fail "serve pass 2 was not served from the store";
  if first_payload p1 = "" then fail "serve pass 1 returned no payload";
  if first_payload p1 <> first_payload p2 then
    fail "served payload differs between passes";
  if first_payload p1 <> read_file "atax.map" then
    fail "served payload differs from the mapfile 'plaidc map -o' writes";
  if not (contains ~needle:"cache_hit_disk" (read_file "serve2.err")) then
    fail "serve --metrics does not surface the cache counters";
  (* cache operations over the populated store *)
  let rc = sh "%s cache stats --cache-dir srvcache > cst.out 2> cst.err" plaidc in
  if rc <> 0 then fail "cache stats exited %d" rc;
  if not (contains ~needle:"1 entries" (read_file "cst.out")) then
    fail "cache stats does not report the stored entry";
  let rc = sh "%s cache verify --cache-dir srvcache > cvf.out 2> cvf.err" plaidc in
  if rc <> 0 then fail "cache verify on a clean store exited %d" rc;
  if not (contains ~needle:"0 corrupt" (read_file "cvf.out")) then
    fail "cache verify miscounts a clean store";
  (* flip one byte of the stored object: verify must flag it (exit 1) and
     gc must heal the store back to verifiable *)
  let object_file =
    let objects = Filename.concat "srvcache" "objects" in
    let shard = Filename.concat objects (Sys.readdir objects).(0) in
    Filename.concat shard (Sys.readdir shard).(0)
  in
  let blob = Bytes.of_string (read_file object_file) in
  Bytes.set blob 40 (Char.chr (Char.code (Bytes.get blob 40) lxor 1));
  let oc = open_out_bin object_file in
  output_string oc (Bytes.to_string blob);
  close_out oc;
  let rc = sh "%s cache verify --cache-dir srvcache > cvf2.out 2> cvf2.err" plaidc in
  if rc <> 1 then fail "cache verify on a corrupted store: expected exit 1, got %d" rc;
  let rc = sh "%s cache gc --cache-dir srvcache > cgc.out 2> cgc.err" plaidc in
  if rc <> 0 then fail "cache gc exited %d" rc;
  let rc = sh "%s cache verify --cache-dir srvcache > cvf3.out 2> cvf3.err" plaidc in
  if rc <> 0 then fail "cache verify after gc exited %d" rc;
  (* a corrupt entry is a miss, never a wrong answer: the next request
     recomputes and re-stores the identical payload *)
  let rc = sh "%s serve --cache-dir srvcache < serve.req > pass3.out 2> serve3.err" plaidc in
  if rc <> 0 then fail "serve pass 3 exited %d" rc;
  if first_payload (read_file "pass3.out") <> first_payload p1 then
    fail "recomputed payload differs after corruption was collected";
  (* unknown cache action: uniform exit 2 *)
  let rc = sh "%s cache frobnicate > cbad.out 2> cbad.err" plaidc in
  if rc <> 2 then fail "unknown cache action: expected exit 2, got %d" rc

(* --- kernels that parse but fail lowering -------------------------------- *)

let () =
  let oc = open_out "twice.plc" in
  output_string oc
    "kernel k1 trip 8 { carry acc = 0; acc = acc + x[i]; acc = acc + 1; out[0] = acc; }\n";
  close_out oc;
  let want = "twice.plc: Lower k1: carry acc assigned twice" in
  (* compile: one stderr line and exit 1, like a parse error *)
  let rc = sh "%s compile -f twice.plc > twice.out 2> twice.err" plaidc in
  if rc <> 1 then fail "kernel failing lowering: expected exit 1, got %d" rc;
  if String.trim (read_file "twice.err") <> want then
    fail "kernel failing lowering: stderr %S, want %S" (read_file "twice.err") want;
  (* serve: a request error, and the next request is still answered *)
  let oc = open_out "twice.req" in
  output_string oc "compile file=twice.plc arch=st\nhealth\n";
  close_out oc;
  let rc =
    sh "%s serve --cache-dir twicecache < twice.req > twice_srv.out 2> twice_srv.err" plaidc
  in
  if rc <> 0 then fail "serve on a kernel failing lowering exited %d" rc;
  let out = read_file "twice_srv.out" in
  if not (contains ~needle:("err " ^ want ^ "\n") out) then
    fail "serve did not answer the lowering error: %S" out;
  if not (contains ~needle:"ok uptime_s=" out) then
    fail "serve stopped answering after a lowering error"

(* --- service telemetry verbs ------------------------------------------- *)

(* split a protocol transcript into (header, payload) frames *)
let parse_frames out =
  let n = String.length out in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match String.index_from_opt out i '\n' with
      | None -> List.rev acc
      | Some j -> (
        let header = String.sub out i (j - i) in
        match String.split_on_char ' ' header with
        | "ok" :: len :: _ -> (
          match int_of_string_opt len with
          | Some l when j + 1 + l <= n ->
            (* skip the payload bytes and their trailing newline *)
            go (j + 1 + l + 1) ((header, String.sub out (j + 1) l) :: acc)
          | _ -> List.rev ((header, "") :: acc))
        | _ -> go (j + 1) ((header, "") :: acc))
  in
  go 0 []

let () =
  (* metrics and health answered mid-replay, over the store the previous
     section populated: the exposition must validate and must carry the
     request-latency buckets and the cache counters this very replay bumped *)
  let oc = open_out "serve_tel.req" in
  output_string oc "map kernel=gemm_u2 arch=st seed=2025\nmetrics\nhealth\nquit\n";
  close_out oc;
  let rc =
    sh "%s serve --cache-dir srvcache --slow-ms 5000 < serve_tel.req > tel.out 2> tel.err"
      plaidc
  in
  if rc <> 0 then fail "serve telemetry replay exited %d" rc;
  (match parse_frames (read_file "tel.out") with
  | [ (map_hdr, _); (_, metrics); (_, health); _quit ] ->
    if not (contains ~needle:"source=" map_hdr) then
      fail "replayed map response carries no source tag: %s" map_hdr;
    (match Plaid_obs.Export.check_openmetrics metrics with
    | Ok () -> ()
    | Error e -> fail "serve metrics verb answered invalid OpenMetrics: %s" e);
    List.iter
      (fun needle ->
        if not (contains ~needle metrics) then
          fail "metrics exposition is missing %s" needle)
      [
        "plaid_serve_request_ms_bucket{le=";
        "plaid_serve_request_ms_count";
        "plaid_cache_hit_disk_total";
        "plaid_cache_miss_total";
      ];
    if not (String.length health >= 2 && String.sub health 0 2 = "ok") then
      fail "health verb did not answer ok: %s" health;
    List.iter
      (fun needle ->
        if not (contains ~needle health) then fail "health line is missing %s" needle)
      [ "uptime_s="; "requests="; "errors="; "cache_mem_hits=" ]
  | fs -> fail "serve telemetry replay answered %d frames (want 4)" (List.length fs));
  (* a positive --metrics-interval is accepted (the replay finishes before
     the first tick; the flag's value validation is what's under test) *)
  let rc = sh "%s serve --metrics-interval 5 < serve.req > /dev/null 2> /dev/null" plaidc in
  if rc <> 0 then fail "serve --metrics-interval 5 exited %d" rc

(* --- mapper explainability reports ------------------------------------- *)

let () =
  (* the report must not perturb the mapping pipeline: stdout is
     byte-identical with and without --report, at -j 1 and -j 4 *)
  let rc = sh "%s map -k doitgen_u2 -a st -j 1 > rep_off.out 2> /dev/null" plaidc in
  if rc <> 0 then fail "map without --report exited %d" rc;
  let rc =
    sh "%s map -k doitgen_u2 -a st -j 1 --report rep.txt > rep_on.out 2> rep_err1.err" plaidc
  in
  if rc <> 0 then fail "map --report exited %d" rc;
  if read_file "rep_off.out" <> read_file "rep_on.out" then
    fail "--report changed the mapping pipeline's stdout";
  let rc =
    sh "%s map -k doitgen_u2 -a st -j 4 --report rep4.txt > rep_on4.out 2> /dev/null" plaidc
  in
  if rc <> 0 then fail "map --report -j 4 exited %d" rc;
  if read_file "rep_off.out" <> read_file "rep_on4.out" then
    fail "--report stdout differs at -j 4";
  let rep = read_file "rep.txt" in
  List.iter
    (fun needle ->
      if not (contains ~needle rep) then fail "ASCII report is missing %s" needle)
    [ "II search"; "phase totals"; "occupancy" ];
  (* a .json report is machine-readable with the documented top-level keys *)
  let rc = sh "%s map -k doitgen_u2 -a st --report rep.json > /dev/null 2> /dev/null" plaidc in
  if rc <> 0 then fail "map --report rep.json exited %d" rc;
  (match Plaid_obs.Json.of_string (String.trim (read_file "rep.json")) with
  | Error e -> fail "JSON report does not parse: %s" e
  | Ok doc ->
    List.iter
      (fun key ->
        if Plaid_obs.Json.member key doc = None then fail "JSON report is missing %S" key)
      [ "kernel"; "seed"; "fabric"; "mapped"; "attempts"; "phase_totals_ms" ]);
  (* an II the PCU port bound rules out is reported but not annealed:
     jacobi's unicast motif reads three outside values through two legs *)
  let rc = sh "%s map -k jacobi -a plaid --report jrep.json > /dev/null 2> /dev/null" plaidc in
  if rc <> 0 then fail "map -k jacobi -a plaid --report exited %d" rc;
  (let open Plaid_obs.Json in
   match of_string (String.trim (read_file "jrep.json")) with
   | Error e -> fail "jacobi JSON report does not parse: %s" e
   | Ok doc -> (
     let list_of k v = Option.fold ~none:[] ~some:to_list (member k v) in
     match List.find_opt (fun at -> member "ii" at = Some (Num 1.0)) (list_of "attempts" doc) with
     | None -> fail "jacobi report has no II 1 attempt"
     | Some at ->
       if member "algo" at <> Some (Str "hier") then fail "jacobi II 1 is not a hier attempt";
       if member "mapped" at <> Some (Bool false) then fail "jacobi mapped at II 1";
       if member "iterations" at <> Some (Num 0.0) then fail "jacobi annealed at II 1";
       if
         not
           (List.exists
              (fun ph -> member "name" ph = Some (Str "port-bound"))
              (list_of "phases" at))
       then fail "jacobi II 1 attempt has no port-bound phase"));
  let rc = sh "%s map -k jacobi -a plaid --report jrep.txt > /dev/null 2> /dev/null" plaidc in
  if rc <> 0 then fail "map -k jacobi -a plaid --report jrep.txt exited %d" rc;
  if not (contains ~needle:"port-bound=" (read_file "jrep.txt")) then
    fail "ASCII report does not show the port-bound skip"

(* a spatial run maps several segments, each its own II search: the
   report's result line and JSON say how many mapped *)
let () =
  let rc = sh "%s map -k gemm_u4 -a spatial -j 1 --report sp.txt > sp.out 2> /dev/null" plaidc in
  if rc <> 0 then fail "map -a spatial --report exited %d" rc;
  if not (contains ~needle:"7 segments" (read_file "sp.out")) then
    fail "gemm_u4 no longer maps in 7 spatial segments: %S" (read_file "sp.out");
  if not (contains ~needle:"result: mapped 7 segments\n" (read_file "sp.txt")) then
    fail "spatial ASCII report does not state the mapped segments";
  let rc = sh "%s map -k gemm_u4 -a spatial --report sp.json > /dev/null 2> /dev/null" plaidc in
  if rc <> 0 then fail "map -a spatial --report sp.json exited %d" rc;
  let open Plaid_obs.Json in
  match of_string (String.trim (read_file "sp.json")) with
  | Error e -> fail "spatial JSON report does not parse: %s" e
  | Ok doc ->
    if member "mapped" doc <> Some (Bool true) then fail "spatial JSON report says unmapped";
    if member "segments" doc <> Some (Num 7.0) then fail "spatial JSON report lacks segments 7"

(* --- priced numbers ------------------------------------------------------ *)

(* The lines map prints from the pricing model, recorded byte for byte: a
   best-of mapping on st_4x4, a hierarchical one on plaid_2x2 and a
   two-segment spatial run, all at the default outer trip count. *)
let () =
  List.iter
    (fun (arch, kernel, want) ->
      let out = Printf.sprintf "price_%s.out" arch in
      let rc = sh "%s map -k %s -a %s -j 1 > %s 2> /dev/null" plaidc kernel arch out in
      if rc <> 0 then fail "map -k %s -a %s exited %d" kernel arch rc;
      let got = read_file out in
      List.iter
        (fun line ->
          if not (contains ~needle:(line ^ "\n") got) then
            fail "map -k %s -a %s no longer prints %S" kernel arch line)
        want)
    [ ( "st",
        "dwconv",
        [ "dwconv on st_4x4: II=2, cycles=126 (outer-scaled 1926)";
          "fabric power 214.5 uW, energy 4131.5 pJ, area 76960 um2" ] );
      ( "plaid",
        "dwconv",
        [ "dwconv on plaid_2x2: II=2, cycles=126 (outer-scaled 1926)";
          "fabric power 128.9 uW, energy 2482.5 pJ, area 38532 um2" ] );
      ( "spatial",
        "gemm_u2",
        [ "gemm_u2 on spatial 4x4: 2 segments, cycles=2416, energy=3195.5 pJ" ] ) ]

(* --- bounded simulation -------------------------------------------------- *)

(* compile and run simulate at most 2^20 node firings (trip x nodes) over
   at most 2^20 array words; past either they refuse with one stderr line
   and exit 1 before allocating.  Each probe sits one trip, one word or
   one stride step past the bound: a build without the bound would
   allocate whatever the kernel asks for. *)
let sim_bound = 1 lsl 20

let expect_sim_refusal ~what cmd =
  let rc = sh "%s > bound.out 2> bound.err" cmd in
  if rc <> 1 then fail "%s past the simulation bound: expected exit 1, got %d" what rc;
  (match String.split_on_char '\n' (String.trim (read_file "bound.err")) with
  | [ line ] ->
    if not (contains ~needle:"simulation bound" line) then
      fail "%s: refusal does not name the bound: %S" what line
  | lines -> fail "%s: expected one stderr line, got %d" what (List.length lines));
  if contains ~needle:"simulation:" (read_file "bound.out") then
    fail "%s simulated past the bound" what

let () =
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  (* dst[i] = src[i] + 1 lowers to three nodes: a load, an add, a store *)
  let kernel trip =
    Printf.sprintf "kernel edge trip %d { dst[i] = src[i] + 1; }\n" trip
  in
  write "at_bound.plc" (kernel (sim_bound / 3));
  let rc = sh "%s compile -f at_bound.plc -a st > at_bound.out 2> /dev/null" plaidc in
  if rc <> 0 || not (contains ~needle:"bit-exact" (read_file "at_bound.out")) then
    fail "compile at the simulation bound did not simulate (exit %d)" rc;
  write "over_bound.plc" (kernel ((sim_bound / 3) + 1));
  expect_sim_refusal ~what:"compile"
    (Printf.sprintf "%s compile -f over_bound.plc -a st" plaidc);
  (* two iterations reading src[0] and src[scale]: src spans scale + 1
     words and dst 2, so a scale of bound - 2 is one word past the bound,
     live or dead *)
  let wide ~dead scale =
    if dead then Printf.sprintf "kernel wide trip 2 { t = src[%d*i]; dst[i] = 1; }\n" scale
    else Printf.sprintf "kernel wide trip 2 { dst[i] = src[%d*i] + 1; }\n" scale
  in
  write "words_at_bound.plc" (wide ~dead:false (sim_bound - 3));
  let rc = sh "%s compile -f words_at_bound.plc -a st > words.out 2> /dev/null" plaidc in
  if rc <> 0 || not (contains ~needle:"bit-exact" (read_file "words.out")) then
    fail "compile at the word bound did not simulate (exit %d)" rc;
  List.iter
    (fun (what, dead) ->
      write "words_over.plc" (wide ~dead (sim_bound - 2));
      expect_sim_refusal ~what (Printf.sprintf "%s compile -f words_over.plc -a st" plaidc))
    [ ("compile (array words)", false); ("compile (a dead load's words)", true) ];
  (* a scale whose extent overflows an OCaml int: 15 steps of 2^61 - 1
     wrap round to a small count unless the extent saturates *)
  write "huge.plc" "kernel huge trip 16 { dst[i] = src[2305843009213693951*i] + 1; }\n";
  expect_sim_refusal ~what:"compile (overflowing extent)"
    (Printf.sprintf "%s compile -f huge.plc -a st" plaidc);
  (* the same kernel saved by map, its trip raised past the bound *)
  let lines = String.split_on_char '\n' (read_file "atax.map") in
  let nodes =
    List.length (List.filter (fun l -> String.length l > 5 && String.sub l 0 5 = "node ") lines)
  in
  write "atax_big.map"
    (String.concat "\n"
       (List.map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "dfg"; name; _ ] -> Printf.sprintf "dfg %s %d" name ((sim_bound / nodes) + 1)
            | _ -> l)
          lines));
  expect_sim_refusal ~what:"run" (Printf.sprintf "%s run -f atax_big.map" plaidc);
  (* the same kernel with node 0's load stride raised until its array alone
     spans just past the bound *)
  let trip =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "dfg"; _; trip ] -> int_of_string_opt trip
        | _ -> None)
      lines
    |> Option.get
  in
  let stride = (sim_bound + trip - 2) / (trip - 1) in
  write "atax_wide.map"
    (String.concat "\n"
       (List.map
          (fun l ->
            match String.split_on_char ' ' l with
            | "node" :: "0" :: op :: imm :: access :: rest -> (
              match String.split_on_char ':' access with
              | [ arr; offset; _ ] ->
                String.concat " "
                  ("node" :: "0" :: op :: imm :: Printf.sprintf "%s:%s:%d" arr offset stride
                 :: rest)
              | _ ->
                fail "atax.map node 0 has no access: %S" l;
                l)
            | _ -> l)
          lines));
  expect_sim_refusal ~what:"run (array words)" (Printf.sprintf "%s run -f atax_wide.map" plaidc)

(* --- architectures from ADL files ------------------------------------- *)

let () =
  let rc =
    sh "%s map -k atax_u2 -a @%s -o adl.map --viz > adl.out 2> adl.err" plaidc adl_file
  in
  if rc <> 0 then fail "map -a @%s exited %d" adl_file rc;
  let out = read_file "adl.out" in
  List.iter
    (fun needle -> if not (contains ~needle out) then fail "ADL map output lacks %S" needle)
    [ "atax_u2 on plaid_4x2"; "bit-exact vs reference"; "slot 0/"; "saved adl.map" ];
  if not (Sys.file_exists "adl.map") then fail "map -a @FILE -o wrote no mapfile";
  (* the saved file names a fabric no table entry builds *)
  let rc = sh "%s run -f adl.map > adlrun.out 2> adlrun.err" plaidc in
  if rc <> 2 then fail "run on an ADL-fabric mapfile: expected exit 2, got %d" rc;
  if not (contains ~needle:"unknown architecture plaid_4x2" (read_file "adlrun.err")) then
    fail "run on an ADL-fabric mapfile: stderr %S" (read_file "adlrun.err");
  let rc = sh "%s map -k atax_u2 -a @nonexistent.adl > adlno.out 2> adlno.err" plaidc in
  if rc <> 2 then fail "map -a @nonexistent.adl: expected exit 2, got %d" rc;
  if not (contains ~needle:"nonexistent.adl" (read_file "adlno.err")) then
    fail "map -a @nonexistent.adl does not name the file on stderr"

(* --- design-space exploration ------------------------------------------ *)

(* one diagnostic line on stderr, clean stdout, exit 2 *)
let expect_dse_reject ~what args =
  let out = Printf.sprintf "dse_%s.out" what and err = Printf.sprintf "dse_%s.err" what in
  let rc = sh "%s dse %s > %s 2> %s" plaidc args out err in
  if rc <> 2 then fail "dse %s: expected exit 2, got %d" what rc;
  if String.trim (read_file out) <> "" then fail "dse %s: diagnostic leaked to stdout" what;
  match String.split_on_char '\n' (String.trim (read_file err)) with
  | [ line ] ->
    if not (String.length line >= 7 && String.sub line 0 7 = "plaidc:") then
      fail "dse %s: diagnostic is not prefixed 'plaidc:': %s" what line
  | lines -> fail "dse %s: expected one stderr line, got %d" what (List.length lines)

let () =
  expect_dse_reject ~what:"bad_space" "--space nosuch --quick";
  expect_dse_reject ~what:"bad_suite" "--space tiny --suite nosuch --quick";
  expect_dse_reject ~what:"bad_strategy" "--space tiny --strategy nosuch --quick";
  expect_dse_reject ~what:"bad_budget" "--space tiny --strategy random --budget 0 --quick";
  expect_dse_reject ~what:"conflict" "--space tiny --strategy exhaustive --budget 4 --quick";
  expect_dse_reject ~what:"j0" "--space tiny --quick -j 0";
  expect_dse_reject ~what:"missing_file" "--space @nonexistent.space --quick";
  let oc = open_out "bad.space" in
  output_string oc "family mesh\nrows four\n";
  close_out oc;
  expect_dse_reject ~what:"bad_file" "--space @bad.space --quick";
  (* a real tiny campaign: exit 0, frontier present, worker-count invariant *)
  let rc = sh "%s dse --space tiny --suite quick --quick -j 1 > dse1.out 2> dse1.err" plaidc in
  if rc <> 0 then fail "dse tiny campaign exited %d" rc;
  let out = read_file "dse1.out" in
  if not (contains ~needle:"frontier" out) then fail "dse report names no frontier";
  if not (contains ~needle:"plaid2x2" out) then fail "dse report is missing the plaid candidates";
  let _ = sh "%s dse --space tiny --suite quick --quick -j 4 > dse4.out 2> /dev/null" plaidc in
  if read_file "dse4.out" <> out then fail "dse report differs between -j 1 and -j 4";
  (* --json - emits machine-readable output with the documented keys *)
  let rc = sh "%s dse --space tiny --suite quick --quick --json - > dse.json 2> dsej.err" plaidc in
  if rc <> 0 then fail "dse --json - exited %d" rc;
  (match Plaid_obs.Json.of_string (String.trim (read_file "dse.json")) with
  | Error e -> fail "dse JSON report does not parse: %s" e
  | Ok doc ->
    List.iter
      (fun key ->
        if Plaid_obs.Json.member key doc = None then fail "dse JSON report is missing %S" key)
      [ "space"; "suite"; "strategy"; "seed"; "frontier"; "candidates" ])

(* --- uniform bad-name handling ----------------------------------------- *)

let () =
  let rc = sh "%s frobnicate > sub.out 2> sub.err" plaidc in
  if rc <> 2 then fail "unknown subcommand: expected exit 2, got %d" rc;
  (* -a resolves before any work: nothing reaches stdout *)
  let oc = open_out "inc.plc" in
  output_string oc "kernel inc trip 8 { y[i] = x[i] + 1; }\n";
  close_out oc;
  List.iter
    (fun (sub, args) ->
      let rc = sh "%s %s %s -a nosuch > arch.out 2> arch.err" plaidc sub args in
      if rc <> 2 then fail "%s: unknown architecture: expected exit 2, got %d" sub rc;
      if not (contains ~needle:"plaid3" (read_file "arch.err")) then
        fail "%s: unknown-architecture error does not list the valid choices" sub;
      if read_file "arch.out" <> "" then
        fail "%s: unknown architecture printed on stdout: %S" sub (read_file "arch.out"))
    [ ("map", "-k gemm_u2"); ("compile", "-f inc.plc"); ("rtl", ""); ("faults", "-k gemm_u2") ];
  (* compile takes every table name, as map and serve do *)
  let rc = sh "%s compile -f inc.plc -a st6 > st6.out 2> st6.err" plaidc in
  if rc <> 0 then fail "compile -a st6: expected exit 0, got %d" rc;
  if not (contains ~needle:"inc on st_6x6" (read_file "st6.out")) then
    fail "compile -a st6 did not map on st_6x6";
  (* bad argument values: stderr diagnostic + exit 2, uniformly *)
  let rc = sh "%s fuzz --frobnicate > badflag.out 2> badflag.err" plaidc in
  if rc <> 2 then fail "unknown fuzz flag: expected exit 2, got %d" rc;
  let rc = sh "%s fuzz --trials=-3 > negt.out 2> negt.err" plaidc in
  if rc <> 2 then fail "negative fuzz trial count: expected exit 2, got %d" rc;
  if String.trim (read_file "negt.err") = "" then
    fail "negative fuzz trial count printed nothing on stderr";
  if String.trim (read_file "negt.out") <> "" then
    fail "negative-trials diagnostic leaked to stdout";
  let rc = sh "%s fuzz --trials 1 -j 0 > j0.out 2> j0.err" plaidc in
  if rc <> 2 then fail "fuzz -j 0: expected exit 2, got %d" rc;
  let rc = sh "%s faults -k gemm_u2 -a st --faults=-1 > negf.out 2> negf.err" plaidc in
  if rc <> 2 then fail "negative fault count: expected exit 2, got %d" rc;
  let rc = sh "%s exp table2 -j 0 > jexp.out 2> jexp.err" plaidc in
  if rc <> 2 then fail "exp -j 0: expected exit 2, got %d" rc;
  (* the telemetry flags take the same uniform path *)
  let rc = sh "%s serve --metrics-interval 0 < /dev/null > mi0.out 2> mi0.err" plaidc in
  if rc <> 2 then fail "serve --metrics-interval 0: expected exit 2, got %d" rc;
  if String.trim (read_file "mi0.err") = "" then
    fail "serve --metrics-interval 0 printed nothing on stderr";
  let rc = sh "%s serve --metrics-interval=-1 < /dev/null > min.out 2> min.err" plaidc in
  if rc <> 2 then fail "serve --metrics-interval -1: expected exit 2, got %d" rc;
  let rc = sh "%s serve --slow-ms=-5 < /dev/null > sm.out 2> sm.err" plaidc in
  if rc <> 2 then fail "serve --slow-ms -5: expected exit 2, got %d" rc;
  let rc =
    sh "%s map -k gemm_u2 -a st --report /nonexistent/dir/rep.txt > badrep.out 2> badrep.err"
      plaidc
  in
  if rc <> 2 then fail "map --report to an unwritable path: expected exit 2, got %d" rc;
  if String.trim (read_file "badrep.err") = "" then
    fail "unwritable --report path printed nothing on stderr"

let () =
  if !failures > 0 then exit 1;
  print_endline
    "cli gate: trace/metrics, fault campaigns, fuzz campaigns, serve/cache, dse, and error handling OK"
