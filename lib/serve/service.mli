(** The batch compile service behind [plaidc serve].

    Requests name work (a suite kernel on a named fabric, a kernel source
    file, or a fuzz-corpus case file); the service fingerprints the request
    ({!Fingerprint}), consults the two-tier {!Cache} with single-flight
    coalescing, and answers with the mapping object blob — byte-identical
    to what [plaidc map -o] writes for the same request, so clients can
    feed responses straight to [plaidc run].

    {2 Line protocol}

    One request per line, space-separated [key=value] arguments:

    {v
    map kernel=<name> arch=<st|st6|stml|plaid|plaid3|plaidml> [seed=<n>] [deadline-ms=<n>]
    compile file=<kernel.k> [arch=<st|st6|stml|plaid|plaid3|plaidml>] [seed=<n>] [deadline-ms=<n>]
    case file=<corpus.case> [deadline-ms=<n>]
    stats
    metrics
    health
    evict all | evict key=<hex>
    quit
    v}

    Replies are framed so payloads may contain anything:

    {v
    ok <len> [source=<mem|disk|compute|coalesced>]\n<len payload bytes>\n
    err <message>\n
    v}

    A request whose mapper finds no mapping answers [err no mapping]; the
    negative result is cached like any other blob (as an empty payload),
    so repeats are hits.  Deadlines are cooperative: the elapsed time is
    checked when the mapping is ready, and a late response is replaced by
    [err deadline exceeded] (the blob still enters the cache for the next
    caller).

    {2 Telemetry}

    Every request runs under a span and feeds bounded latency histograms
    ([serve_request_ms], [serve_queue_wait_ms], [serve_cache_ms],
    [serve_compute_ms]) plus batch-size/queue-depth series; [metrics]
    answers the whole registry as OpenMetrics text ({!Plaid_obs.Export}),
    and [health] answers a one-line liveness summary (uptime, request and
    error tallies, cache hit/miss/corrupt counts).  A request slower than
    the [slow_ms] threshold emits a structured [PLAID_LOG]-gated warning.
    All of it is strictly out-of-band: payload bytes are identical with
    telemetry armed or not. *)

type t

val create : ?pool:Plaid_util.Pool.t -> ?slow_ms:float -> cache:Cache.t -> unit -> t
(** Builds every fabric of {!Plaid_core.Fabrics.all} eagerly, once (so pool
    tasks never race to build one), and keeps [pool] for {!run_batch}.
    [arch=] takes the table's names ({!Plaid_core.Fabrics.names}); [map]
    and [compile] default to [plaid].  [slow_ms] (default 1000) is the
    slow-request log threshold. *)

val cache : t -> Cache.t

type request =
  | Map of { kernel : string; arch : string; seed : int; deadline_ms : int option }
  | Compile of { file : string; arch : string; seed : int; deadline_ms : int option }
  | Case of { file : string; deadline_ms : int option }
  | Stats
  | Metrics
  | Health
  | Evict of [ `All | `Key of string ]
  | Quit

val parse_request : string -> (request, string) result

type response =
  | Payload of { source : Cache.source option; payload : string }
      (** [source] is [None] for administrative replies (stats, evict) *)
  | Failure of string

val handle : ?queued_at:int64 -> t -> request -> response
(** Serve one request on the calling domain ([Quit] answers [ok 0]).
    [queued_at] ({!Plaid_obs.Trace.Clock.now_ns} when the request was read
    off the wire) feeds the queue-wait histogram. *)

val run_batch : t -> request list -> response list
(** Serve a batch: every request becomes a pool task (sequential without a
    pool), so a mixed batch fills all workers while identical requests
    coalesce down to one mapping.  Responses come back in request order
    regardless of execution interleaving. *)

val write_response : out_channel -> response -> unit
(** Emit the wire framing described above (flushes). *)
