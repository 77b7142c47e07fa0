let m_hit_mem = Plaid_obs.Metrics.counter "cache_hit_mem"
let m_hit_disk = Plaid_obs.Metrics.counter "cache_hit_disk"
let m_miss = Plaid_obs.Metrics.counter "cache_miss"
let m_coalesced = Plaid_obs.Metrics.counter "cache_coalesced"
let m_evicted = Plaid_obs.Metrics.counter "cache_evicted"

type entry = { blob : string; mutable tick : int }

type flight = { owner : Domain.id; mutable f_done : bool; mutable f_result : string option }

type t = {
  lock : Mutex.t;
  cond : Condition.t;  (* broadcast when any flight lands *)
  mem : (string, entry) Hashtbl.t;
  inflight : (string, flight) Hashtbl.t;
  disk : Store.t option;
  mem_budget : int;
  mutable mem_bytes : int;
  mutable clock : int;
  (* own stats, live even when Metrics is disarmed *)
  mutable s_hit_mem : int;
  mutable s_hit_disk : int;
  mutable s_miss : int;
  mutable s_coalesced : int;
  mutable s_evicted : int;
  mutable s_corrupt : int;
}

let create ?(mem_budget = 64 * 1024 * 1024) ?dir () =
  if mem_budget < 0 then invalid_arg "Cache.create: negative budget";
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    mem = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    disk = Option.map Store.open_dir dir;
    mem_budget;
    mem_bytes = 0;
    clock = 0;
    s_hit_mem = 0; s_hit_disk = 0; s_miss = 0; s_coalesced = 0;
    s_evicted = 0; s_corrupt = 0;
  }

let store t = t.disk

type source = Mem | Disk | Computed | Coalesced

let source_to_string = function
  | Mem -> "mem"
  | Disk -> "disk"
  | Computed -> "compute"
  | Coalesced -> "coalesced"

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Callers hold the lock.  Evicts least-recently-used entries until the
   budget fits; the entry just inserted survives even if it alone exceeds
   the budget (an empty memory tier would thrash). *)
let trim_locked t ~keep =
  try
  while t.mem_bytes > t.mem_budget && Hashtbl.length t.mem > 1 do
    let victim = ref None in
    Hashtbl.iter
      (fun key e ->
        if key <> keep then
          match !victim with
          | Some (_, oldest) when oldest.tick <= e.tick -> ()
          | _ -> victim := Some (key, e))
      t.mem;
    match !victim with
    | None -> raise Exit (* only [keep] left; cannot shrink further *)
    | Some (key, e) ->
      Hashtbl.remove t.mem key;
      t.mem_bytes <- t.mem_bytes - String.length e.blob;
      t.s_evicted <- t.s_evicted + 1;
      Plaid_obs.Metrics.incr m_evicted
  done
  with Exit -> ()

let insert_mem_locked t key blob =
  (match Hashtbl.find_opt t.mem key with
  | Some old -> t.mem_bytes <- t.mem_bytes - String.length old.blob
  | None -> ());
  t.clock <- t.clock + 1;
  Hashtbl.replace t.mem key { blob; tick = t.clock };
  t.mem_bytes <- t.mem_bytes + String.length blob;
  trim_locked t ~keep:key

let find_mem_locked t key =
  match Hashtbl.find_opt t.mem key with
  | None -> None
  | Some e ->
    t.clock <- t.clock + 1;
    e.tick <- t.clock;
    Some e.blob

(* Disk probe, outside the lock (Store.get never raises on bad data). *)
let probe_disk t key =
  match t.disk with
  | None -> `Miss
  | Some store -> (
    match Store.get store ~key with
    | Store.Hit blob -> `Hit blob
    | Store.Miss -> `Miss
    | Store.Corrupt -> `Corrupt)

let find t ~key =
  match locked t (fun () -> find_mem_locked t key) with
  | Some blob ->
    locked t (fun () -> t.s_hit_mem <- t.s_hit_mem + 1);
    Plaid_obs.Metrics.incr m_hit_mem;
    Some (blob, Mem)
  | None -> (
    match probe_disk t key with
    | `Hit blob ->
      locked t (fun () ->
          insert_mem_locked t key blob;
          t.s_hit_disk <- t.s_hit_disk + 1);
      Plaid_obs.Metrics.incr m_hit_disk;
      Some (blob, Disk)
    | `Corrupt ->
      locked t (fun () -> t.s_corrupt <- t.s_corrupt + 1);
      None
    | `Miss -> None)

let put t ~key blob =
  (match t.disk with Some store -> Store.put store ~key blob | None -> ());
  locked t (fun () -> insert_mem_locked t key blob)

let finish_flight t key fl result =
  locked t (fun () ->
      fl.f_result <- result;
      fl.f_done <- true;
      Hashtbl.remove t.inflight key;
      Condition.broadcast t.cond)

(* Callers hold the lock.  A pool waiter runs other queued tasks on its
   own stack, so a domain inside a compute can be asked for a key in
   flight: its own, which cannot land while it waits, or another domain's,
   whose owner may be waiting on this one.  Such a caller computes the key
   itself: a compute is a function of its key, so both answers agree. *)
let computing_locked t self =
  Hashtbl.fold (fun _ fl acc -> acc || fl.owner = self) t.inflight false

let get_or_compute t ~key compute =
  let claim =
    locked t (fun () ->
        match find_mem_locked t key with
        | Some blob ->
          t.s_hit_mem <- t.s_hit_mem + 1;
          `Hit blob
        | None -> (
          match Hashtbl.find_opt t.inflight key with
          | Some _ when computing_locked t (Domain.self ()) ->
            t.s_miss <- t.s_miss + 1;
            `Inline
          | Some fl ->
            t.s_coalesced <- t.s_coalesced + 1;
            while not fl.f_done do
              Condition.wait t.cond t.lock
            done;
            `Joined fl.f_result
          | None ->
            let fl = { owner = Domain.self (); f_done = false; f_result = None } in
            Hashtbl.replace t.inflight key fl;
            `Fly fl))
  in
  match claim with
  | `Hit blob ->
    Plaid_obs.Metrics.incr m_hit_mem;
    (Some blob, Mem)
  | `Joined result ->
    Plaid_obs.Metrics.incr m_coalesced;
    (result, Coalesced)
  | `Inline ->
    Plaid_obs.Metrics.incr m_miss;
    (compute (), Computed)
  | `Fly fl -> (
    match probe_disk t key with
    | `Hit blob ->
      locked t (fun () ->
          insert_mem_locked t key blob;
          t.s_hit_disk <- t.s_hit_disk + 1);
      Plaid_obs.Metrics.incr m_hit_disk;
      finish_flight t key fl (Some blob);
      (Some blob, Disk)
    | (`Miss | `Corrupt) as disk -> (
      locked t (fun () ->
          (match disk with
          | `Corrupt -> t.s_corrupt <- t.s_corrupt + 1
          | `Miss -> ());
          t.s_miss <- t.s_miss + 1);
      Plaid_obs.Metrics.incr m_miss;
      match compute () with
      | exception e ->
        (* waiters must not hang on a crashed compute *)
        finish_flight t key fl None;
        raise e
      | None ->
        finish_flight t key fl None;
        (None, Computed)
      | Some blob ->
        (* durable first, then visible: a reader that sees the memory
           entry can rely on the disk object existing too *)
        (match t.disk with Some store -> Store.put store ~key blob | None -> ());
        locked t (fun () -> insert_mem_locked t key blob);
        finish_flight t key fl (Some blob);
        (Some blob, Computed)))

let evict t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.mem key with
      | Some e ->
        Hashtbl.remove t.mem key;
        t.mem_bytes <- t.mem_bytes - String.length e.blob
      | None -> ());
  match t.disk with Some store -> Store.delete store ~key | None -> ()

let evict_all t =
  locked t (fun () ->
      Hashtbl.reset t.mem;
      t.mem_bytes <- 0);
  match t.disk with Some store -> ignore (Store.clear store) | None -> ()

type stats = {
  mem_entries : int;
  mem_bytes : int;
  mem_budget : int;
  hit_mem : int;
  hit_disk : int;
  miss : int;
  coalesced : int;
  evicted : int;
  corrupt : int;
}

let stats t =
  locked t (fun () ->
      {
        mem_entries = Hashtbl.length t.mem;
        mem_bytes = t.mem_bytes;
        mem_budget = t.mem_budget;
        hit_mem = t.s_hit_mem;
        hit_disk = t.s_hit_disk;
        miss = t.s_miss;
        coalesced = t.s_coalesced;
        evicted = t.s_evicted;
        corrupt = t.s_corrupt;
      })

let pp_stats fmt s =
  Format.fprintf fmt
    "mem_entries %d@.mem_bytes %d@.mem_budget %d@.hit_mem %d@.hit_disk %d@.\
     miss %d@.coalesced %d@.evicted %d@.corrupt %d"
    s.mem_entries s.mem_bytes s.mem_budget s.hit_mem s.hit_disk s.miss
    s.coalesced s.evicted s.corrupt
