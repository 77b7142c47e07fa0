(** Two-tier mapping cache with single-flight request coalescing.

    Tier 1 is an in-memory LRU bounded by a payload-byte budget; tier 2 is
    the content-addressed {!Store} (optional: a cache created without
    [~dir] is memory-only).  Disk hits are promoted to memory; corrupt
    disk entries count as misses (and bump the [cache_corrupt] metric) and
    are overwritten by the recomputed blob.

    {!get_or_compute} is single-flight: when N callers race on the same
    key, one runs the compute function and the other N-1 block until the
    result lands, then share it — N identical in-flight requests cost one
    mapping.  Negative results ([None] from compute) are delivered to the
    coalesced waiters but are not remembered, so a later request retries.

    All operations are safe to call concurrently from pool workers.  The
    cache never holds its lock while computing or touching the disk, so
    compute functions may themselves use the worker pool.  A domain that
    is itself inside one of this cache's computes never blocks on a flight:
    while it waits on a pool batch it may run another queued task that asks
    for a key in flight, its own included, so it computes that key instead.

    Every outcome is double-counted into its own stats (always on, read
    via {!stats}) and the global {!Plaid_obs.Metrics} registry
    ([cache_hit_mem], [cache_hit_disk], [cache_miss], [cache_coalesced],
    [cache_evicted]) for [--metrics] output. *)

type t

val create : ?mem_budget:int -> ?dir:string -> unit -> t
(** [mem_budget] is the in-memory tier's payload budget in bytes
    (default 64 MiB; at least one entry is always kept).  [dir] roots the
    durable tier. *)

val store : t -> Store.t option

type source =
  | Mem
  | Disk
  | Computed  (** miss: the compute function ran *)
  | Coalesced  (** joined another caller's in-flight compute *)

val source_to_string : source -> string

val find : t -> key:string -> (string * source) option
(** Lookup without computing: memory, then disk.  [source] is [Mem] or
    [Disk]. *)

val put : t -> key:string -> string -> unit
(** Insert into both tiers. *)

val get_or_compute : t -> key:string -> (unit -> string option) -> string option * source
(** The serving path.  A compute returning [Some blob] is inserted into
    both tiers; [None] is returned (and handed to coalesced waiters) but
    not cached.  If compute raises, the exception propagates to the
    computing caller and waiters observe a miss result of [None]. *)

val evict : t -> key:string -> unit
(** Drop one key from both tiers. *)

val evict_all : t -> unit
(** Drop the whole memory tier and every disk object. *)

type stats = {
  mem_entries : int;
  mem_bytes : int;
  mem_budget : int;
  hit_mem : int;
  hit_disk : int;
  miss : int;
  coalesced : int;
  evicted : int;  (** LRU evictions from the memory tier *)
  corrupt : int;  (** disk reads that failed verification *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Stable, deterministic field order — the [stats] protocol reply. *)
