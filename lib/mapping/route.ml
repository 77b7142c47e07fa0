module Obs = Plaid_obs

type mode =
  | Hard
  | Soft of { present_factor : float; history : float array array }

type path = (int * int) list

let max_detour = 64

let m_finds = Obs.Metrics.counter "route/finds"
let m_memo_hits = Obs.Metrics.counter "route/memo_hits"
let m_memo_misses = Obs.Metrics.counter "route/memo_misses"

(* -------------------------------------------------------- search helpers *)

(* Rebuild the path, dropping the source and target FU states. *)
let reconstruct ~prev ~start ~len1 ~dst_fu ~length target =
  let rec walk s acc =
    if s = start then acc
    else
      let res = s / len1 and elapsed = s mod len1 in
      walk prev.(s) ((res, elapsed) :: acc)
  in
  let full = walk target [] in
  List.filter (fun (res, elapsed) -> not (res = dst_fu && elapsed = length)) full

(* ------------------------------------------------------------------ heap *)

(* Indexed binary min-heap over dense state ids, ordered by the strict
   (key, sec, id) order, so its pops are a pure function of its contents.
   Priorities are kept in slot order next to the ids, so a sift reads
   neighbouring floats; [push] is inlined into the search, so its float
   arguments are never boxed.  A present id only ever moves up: the search
   lowers a state's priority exactly when it lowers the state's distance. *)
module Heap = struct
  type t = {
    mutable hkey : float array;  (* slot -> primary key *)
    mutable hsec : float array;  (* slot -> secondary key *)
    mutable hid : int array;     (* slot -> id *)
    mutable pos : int array;     (* id -> slot, -1 when absent *)
    mutable size : int;
  }

  let create () = { hkey = [||]; hsec = [||]; hid = [||]; pos = [||]; size = 0 }

  let reserve h n =
    if h.size > 0 then invalid_arg "Route.Heap.reserve: heap not empty";
    if n > Array.length h.pos then begin
      let cap = max n (2 * Array.length h.pos) in
      h.hkey <- Array.make cap 0.0;
      h.hsec <- Array.make cap 0.0;
      h.hid <- Array.make cap 0;
      h.pos <- Array.make cap (-1)
    end

  let[@inline] before (k1 : float) (s1 : float) (i1 : int) k2 s2 i2 =
    k1 < k2 || (k1 = k2 && (s1 < s2 || (s1 = s2 && i1 < i2)))

  (* Insert an absent id, or lower a present one: the hole starts at the
     id's slot (or a new last slot) and rises past every larger parent. *)
  let[@inline] push h id ~key ~sec =
    let hkey = h.hkey and hsec = h.hsec and hid = h.hid and pos = h.pos in
    let slot = ref pos.(id) in
    if !slot < 0 then begin
      slot := h.size;
      h.size <- h.size + 1
    end;
    let rising = ref true in
    while !rising && !slot > 0 do
      let p = (!slot - 1) / 2 in
      let pid = hid.(p) in
      if before key sec id hkey.(p) hsec.(p) pid then begin
        hkey.(!slot) <- hkey.(p);
        hsec.(!slot) <- hsec.(p);
        hid.(!slot) <- pid;
        pos.(pid) <- !slot;
        slot := p
      end
      else rising := false
    done;
    hkey.(!slot) <- key;
    hsec.(!slot) <- sec;
    hid.(!slot) <- id;
    pos.(id) <- !slot

  (* The minimum id, or -1 when empty.  The last entry falls from the
     root past every smaller child. *)
  let pop h =
    if h.size = 0 then -1
    else begin
      let hkey = h.hkey and hsec = h.hsec and hid = h.hid and pos = h.pos in
      let top = hid.(0) in
      pos.(top) <- -1;
      let n = h.size - 1 in
      h.size <- n;
      if n > 0 then begin
        let key = hkey.(n) and sec = hsec.(n) and id = hid.(n) in
        let slot = ref 0 and falling = ref true in
        while !falling do
          let l = (2 * !slot) + 1 in
          if l >= n then falling := false
          else begin
            let c =
              if l + 1 < n && before hkey.(l + 1) hsec.(l + 1) hid.(l + 1) hkey.(l) hsec.(l) hid.(l)
              then l + 1
              else l
            in
            if before hkey.(c) hsec.(c) hid.(c) key sec id then begin
              let cid = hid.(c) in
              hkey.(!slot) <- hkey.(c);
              hsec.(!slot) <- hsec.(c);
              hid.(!slot) <- cid;
              pos.(cid) <- !slot;
              slot := c
            end
            else falling := false
          end
        done;
        hkey.(!slot) <- key;
        hsec.(!slot) <- sec;
        hid.(!slot) <- id;
        pos.(id) <- !slot
      end;
      top
    end

  (* O(contained ids): only ids still in the heap need their slot reset. *)
  let clear h =
    for slot = 0 to h.size - 1 do
      h.pos.(h.hid.(slot)) <- -1
    done;
    h.size <- 0
end

(* ----------------------------------------------------------- query memo *)

(* What a search observes of a cell it probes, as one int.  [-2]: a node
   executes there, so the cell is never passable.  Otherwise, in soft
   mode, the number of distinct signals (the presence that prices the
   step); in hard mode, [0] when empty, [1 + e] when it carries only
   [src_node]'s value at elapsed [e] (passable exactly at [e]), and [-1]
   otherwise (never passable). *)
let[@inline] cell_code ~soft ~src_node (c : Mrrg.cell) =
  match c.Mrrg.exec with
  | Some _ -> -2
  | None -> (
    if soft then List.length c.Mrrg.signals
    else
      match c.Mrrg.signals with
      | [] -> 0
      | [ (sg, _) ] when sg.Mrrg.s_node = src_node -> 1 + sg.Mrrg.s_elapsed
      | _ -> -1)

(* A footprint records, for each (res, slot) cell the search probed, its
   code and (in soft mode) the history cost in force.  Probe [i] is
   [me_cells.(3i)] (resource), [me_cells.(3i+1)] (modulo slot),
   [me_cells.(3i+2)] (the code) and, in soft mode only, [me_hist.(i)]. *)
type memo_entry = {
  me_pf : float;  (* negotiation present_factor; 0.0 in hard mode *)
  me_cells : int array;
  me_hist : float array;  (* empty in hard mode *)
  me_result : (path * float) option;
}

type memo_state = { memo_tbl : (int, memo_entry) Hashtbl.t }

type Mrrg.ext += Memo of memo_state

let memo_capacity = 4096

let memo_of mrrg =
  match Mrrg.get_ext mrrg with
  | Memo m -> m
  | _ ->
    let m = { memo_tbl = Hashtbl.create 256 } in
    Mrrg.set_ext mrrg (Memo m);
    m

(* Key layout (58 bits): mode | src_fu:12 | dst_fu:12 | length:7 | slot0:10
   | src_node:16.  Queries outside these ranges simply skip the memo. *)
let memo_key ~soft ~src_fu ~dst_fu ~length ~slot0 ~src_node =
  (if soft then 1 else 0)
  lor (src_fu lsl 1)
  lor (dst_fu lsl 13)
  lor (length lsl 25)
  lor (slot0 lsl 32)
  lor (src_node lsl 42)

let memo_keyable ~n ~ii ~src_node =
  n < 4096 && ii <= 1024 && src_node >= 0 && src_node < 65536

(* A stored result is exactly what a fresh search would return iff every
   cell the search probed still shows the same code and history, and the
   present-congestion factor either matches or cannot matter (the probed
   cell was empty or executes a node, so no [pf *. presence] term was
   priced).  By induction over the search, identical probe values imply
   an identical probe set and identical decisions throughout. *)
let memo_valid mrrg ~mode ~src_node entry =
  let soft, same_pf, hist =
    match mode with
    | Hard -> (false, true, [||])
    | Soft s -> (true, entry.me_pf = s.present_factor, s.history)
  in
  let cells = Mrrg.cells mrrg and exclusive = Mrrg.exclusive mrrg in
  let fp = entry.me_cells in
  let n = Array.length fp / 3 in
  let rec ok i =
    i >= n
    ||
    let res = fp.(3 * i) and slot = fp.((3 * i) + 1) and code = fp.((3 * i) + 2) in
    cell_code ~soft ~src_node cells.(res).(if exclusive then 0 else slot) = code
    && ((not soft) || hist.(res).(slot) = entry.me_hist.(i))
    && (same_pf || code <= 0)
    && ok (i + 1)
  in
  ok 0

(* ---------------------------------------------------------- search core *)

(* Per-domain scratch arena: epoch-stamped dist/prev/popped state arrays,
   a reusable indexed heap, a footprint-mark array for memo probe
   deduplication, the per-elapsed slot table, the chain marks and the
   footprint buffers.  A search touches only the states it explores;
   bumping the epoch invalidates everything in O(1).

   Chain marks are per (resource, normalized slot) cell:
   [a_chain.(c) = tick * chain_span + elapsed] when the chain of the pop
   numbered [tick] holds cell [c] at [elapsed].  Ticks only grow, so a
   mark below the current pop's [tick * chain_span] is stale. *)
type arena = {
  mutable a_dist : float array;
  mutable a_prev : int array;
  mutable a_stamp : int array;    (* state valid iff = a_epoch *)
  mutable a_pop : int array;      (* state popped iff = a_epoch *)
  mutable a_cmark : int array;    (* cell probed iff = a_epoch *)
  mutable a_epoch : int;
  mutable a_slot : int array;     (* elapsed -> modulo slot *)
  mutable a_chain : int array;
  mutable a_tick : int;
  mutable a_fp_cells : int array;
  mutable a_fp_hist : float array;
  mutable a_fp_n : int;
  a_heap : Heap.t;
}

let chain_span = max_detour + 1

let arena_key : arena Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { a_dist = [||]; a_prev = [||]; a_stamp = [||]; a_pop = [||]; a_cmark = [||];
        a_epoch = 0; a_slot = [||]; a_chain = [||]; a_tick = 0;
        a_fp_cells = [||]; a_fp_hist = [||]; a_fp_n = 0; a_heap = Heap.create () })

let ensure_arena a ~nstates ~ncells ~len1 =
  if Array.length a.a_stamp < nstates then begin
    let cap = max nstates (2 * Array.length a.a_stamp) in
    a.a_dist <- Array.make cap infinity;
    a.a_prev <- Array.make cap (-1);
    a.a_stamp <- Array.make cap 0;
    a.a_pop <- Array.make cap 0
  end;
  if Array.length a.a_cmark < ncells then begin
    let cap = max ncells (2 * Array.length a.a_cmark) in
    a.a_cmark <- Array.make cap 0;
    a.a_chain <- Array.make cap 0
  end;
  if Array.length a.a_slot < len1 then a.a_slot <- Array.make len1 0;
  Heap.clear a.a_heap;
  Heap.reserve a.a_heap nstates;
  a.a_fp_n <- 0;
  a.a_epoch <- a.a_epoch + 1

let record_probe a ~soft res slot code (hist : float array array) =
  let i = a.a_fp_n in
  if i = Array.length a.a_fp_hist then begin
    let cap = max 64 (2 * i) in
    let cells = Array.make (3 * cap) 0 and h = Array.make cap 0.0 in
    Array.blit a.a_fp_cells 0 cells 0 (3 * i);
    Array.blit a.a_fp_hist 0 h 0 i;
    a.a_fp_cells <- cells;
    a.a_fp_hist <- h
  end;
  a.a_fp_cells.(3 * i) <- res;
  a.a_fp_cells.((3 * i) + 1) <- slot;
  a.a_fp_cells.((3 * i) + 2) <- code;
  if soft then a.a_fp_hist.(i) <- hist.(res).(slot);
  a.a_fp_n <- i + 1

(* The footprint of the search just run on this domain, copied out of the
   arena. *)
let footprint a ~soft ~pf result =
  let n = a.a_fp_n in
  { me_pf = pf;
    me_cells = Array.sub a.a_fp_cells 0 (3 * n);
    me_hist = (if soft then Array.sub a.a_fp_hist 0 n else [||]);
    me_result = result }

(* A* search over states [res * (length+1) + elapsed], using the
   architecture's hop table as a consistent lower bound (every non-target
   step costs >= 1.0 and the target entry is free, so [hops - 1] never
   overestimates), the latency table to prune states that cannot reach the
   target within the remaining cycle budget (such states are never on any
   surviving prev chain), CSR adjacency, and the indexed heap above.  Each
   relaxation reads its slot from a per-search table and tests the cell
   by its code.  Optionally records the probe footprint for the memo in
   the arena.

   A path must not reuse a (resource, slot) cell at a different elapsed
   time: the value would collide with itself one iteration apart (e.g. a
   register held for >= II cycles).  Under a frozen (spatial)
   configuration any second visit at a different delay conflicts — a
   static mux cannot feed the same wire twice, and all slots share one
   cell.  Every prev link is set only after this test against the
   parent's chain, so a chain holds each cell at most once, and prev
   chains are final at pop time: one walk of the popped state's chain,
   marking each cell with its elapsed time, answers the test for every
   neighbour exactly. *)
let search mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode ~record =
  let arch = Mrrg.arch mrrg in
  let n = Plaid_arch.Arch.n_resources arch in
  let fu_ok = arch.Plaid_arch.Arch.allow_fu_routethrough in
  let rt = Plaid_arch.Arch.route_tables arch in
  let adj_idx = rt.Plaid_arch.Arch.rt_adj_idx and adj_dst = rt.Plaid_arch.Arch.rt_adj_dst
  and adj_lat = rt.Plaid_arch.Arch.rt_adj_lat and rt_lat = rt.Plaid_arch.Arch.rt_lat
  and rt_hop = rt.Plaid_arch.Arch.rt_hop and rt_row = rt.Plaid_arch.Arch.rt_row
  and base_cost = rt.Plaid_arch.Arch.rt_cost in
  let len1 = length + 1 in
  let nstates = n * len1 in
  let ii = Mrrg.ii mrrg in
  let exclusive = Mrrg.exclusive mrrg in
  let nslots = if exclusive then 1 else ii in
  let cells = Mrrg.cells mrrg and blocked = Mrrg.blocked_cells mrrg in
  let soft, present_factor, hist =
    match mode with
    | Hard -> (false, 0.0, [||])
    | Soft s -> (true, s.present_factor, s.history)
  in
  let a = Domain.DLS.get arena_key in
  (* Probe marks are per (res, modulo slot) — NOT per collapsed cell: on an
     exclusive MRRG occupancy collapses to one cell but the negotiation
     history keeps one entry per slot, and each consulted entry must land
     in the footprint. *)
  ensure_arena a ~nstates ~ncells:(n * ii) ~len1;
  let epoch = a.a_epoch in
  let dist = a.a_dist and prev = a.a_prev and stamp = a.a_stamp and pop = a.a_pop in
  let cmark = a.a_cmark and chain = a.a_chain in
  let slot_of = a.a_slot in
  for e = 0 to length do
    slot_of.(e) <- Schedule.slot ~ii (t_src + e)
  done;
  let heap = a.a_heap in
  let row = rt_row.(dst_fu) in
  let[@inline] h res =
    let hops = Char.code (Bytes.unsafe_get rt_hop (row + res)) in
    float_of_int (if hops > 1 then hops - 1 else 0)
  in
  let start = src_fu * len1 in
  let target = (dst_fu * len1) + length in
  stamp.(start) <- epoch;
  dist.(start) <- 0.0;
  prev.(start) <- -1;
  pop.(start) <- 0;
  Heap.push heap start ~key:(h src_fu) ~sec:0.0;
  let dist_target = ref infinity in
  let finished = ref false in
  while not !finished do
    let s = Heap.pop heap in
    if s < 0 then finished := true
    else begin
      let g = dist.(s) in
      let res = s / len1 in
      let elapsed = s - (res * len1) in
      (* Keep draining until the popped priority strictly exceeds the best
         target distance: equal-priority states may still rewrite
         [prev target] under the canonical tie rule. *)
      if g +. h res > !dist_target then finished := true
      else begin
        pop.(s) <- epoch;
        if s <> target then begin
          (* The popped chain is marked on the first neighbour that
             reaches the chain rule; [mark] is then this pop's base. *)
          let mark = ref 0 in
          for k = adj_idx.(res) to adj_idx.(res + 1) - 1 do
            let dst = Array.unsafe_get adj_dst k in
            let e' = elapsed + Array.unsafe_get adj_lat k in
            if e' <= length then begin
              let is_target = dst = dst_fu && e' = length in
              if is_target then begin
                (* The target entry is free and always passable; relaxing
                   it apart keeps the other states' path free of target
                   cases. *)
                let s' = (dst * len1) + e' in
                if stamp.(s') <> epoch then begin
                  stamp.(s') <- epoch;
                  dist.(s') <- infinity;
                  prev.(s') <- -1;
                  pop.(s') <- 0
                end;
                if g < dist.(s') then begin
                  dist.(s') <- g;
                  prev.(s') <- s;
                  dist_target := g;
                  Heap.push heap s' ~key:(g +. h dst) ~sec:g
                end
                else if g = dist.(s') && s < prev.(s') then prev.(s') <- s
              end
              else if
                Char.code (Bytes.unsafe_get rt_lat (row + dst)) <= length - e'
                && (fu_ok || Array.unsafe_get rt_row dst < 0)
              then begin
                let slot = slot_of.(e') in
                let cslot = if exclusive then 0 else slot in
                let code = cell_code ~soft ~src_node cells.(dst).(cslot) in
                let cell_hist = if soft then hist.(dst).(slot) else 0.0 in
                if record then begin
                  let p = (dst * ii) + slot in
                  if cmark.(p) <> epoch then begin
                    cmark.(p) <- epoch;
                    record_probe a ~soft dst slot code hist
                  end
                end;
                (* Faulted cells and cells where a node executes are never
                   usable, even under negotiation.  Hard mode also needs
                   the cell empty or carrying this very signal (multicast
                   sharing); soft mode opens every other wire at a price. *)
                let free =
                  (not blocked.(dst).(cslot))
                  && if soft then code >= 0 else code = 0 || code = e' + 1
                in
                if free then begin
                  if !mark = 0 then begin
                    a.a_tick <- a.a_tick + 1;
                    mark := a.a_tick * chain_span;
                    let t = ref s in
                    while !t <> start do
                      let r = !t / len1 in
                      let e = !t - (r * len1) in
                      chain.((r * nslots) + if exclusive then 0 else slot_of.(e)) <- !mark + e;
                      t := prev.(!t)
                    done
                  end;
                  (* passable: the cell is off the chain, or on it at e' *)
                  let v = chain.((dst * nslots) + cslot) in
                  if v < !mark || v = !mark + e' then begin
                    let base = Array.unsafe_get base_cost dst in
                    let cost =
                      if soft then
                        (* [free] means no node executes here, so the code
                           is the presence: the number of distinct signals. *)
                        (base *. (1.0 +. (present_factor *. float_of_int code))) +. cell_hist
                      else base
                    in
                    let nd = g +. cost in
                    let s' = (dst * len1) + e' in
                    if stamp.(s') <> epoch then begin
                      stamp.(s') <- epoch;
                      dist.(s') <- infinity;
                      prev.(s') <- -1;
                      pop.(s') <- 0
                    end;
                    if nd < dist.(s') then begin
                      dist.(s') <- nd;
                      prev.(s') <- s;
                      Heap.push heap s' ~key:(nd +. h dst) ~sec:nd
                    end
                    else if nd = dist.(s') && s < prev.(s') && pop.(s') <> epoch then
                      prev.(s') <- s
                  end
                end
              end
            end
          done
        end
      end
    end
  done;
  if !dist_target = infinity then None
  else Some (reconstruct ~prev ~start ~len1 ~dst_fu ~length target, !dist_target)

(* ----------------------------------------------------------------- find *)

let find mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode =
  Obs.Metrics.incr m_finds;
  if length < 0 || length > max_detour then None
  else if length = 0 then
    (* A zero-elapsed edge is routable exactly when producer and consumer
       share the FU: the value is consumed the cycle it is produced, over
       no routing resources (the empty path trivially satisfies the
       no-revisit rule).  Distinct FUs would need a combinational path out
       of an FU, which the architecture contract (FU out-links have
       latency 1) rules out. *)
    if src_fu = dst_fu then Some ([], 0.0) else None
  else begin
    let arch = Mrrg.arch mrrg in
    let n = Plaid_arch.Arch.n_resources arch in
    let ii = Mrrg.ii mrrg in
    if not (memo_keyable ~n ~ii ~src_node) then
      search mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode ~record:false
    else begin
      let soft, pf =
        match mode with Hard -> (false, 0.0) | Soft s -> (true, s.present_factor)
      in
      let slot0 = Schedule.slot ~ii t_src in
      let key = memo_key ~soft ~src_fu ~dst_fu ~length ~slot0 ~src_node in
      let memo = memo_of mrrg in
      match Hashtbl.find_opt memo.memo_tbl key with
      | Some entry when memo_valid mrrg ~mode ~src_node entry ->
        Obs.Metrics.incr m_memo_hits;
        entry.me_result
      | _ ->
        Obs.Metrics.incr m_memo_misses;
        let result =
          search mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode ~record:true
        in
        if Hashtbl.length memo.memo_tbl >= memo_capacity then
          Hashtbl.reset memo.memo_tbl;
        Hashtbl.replace memo.memo_tbl key
          (footprint (Domain.DLS.get arena_key) ~soft ~pf result);
        result
    end
  end

let occupy_path mrrg ~src_node ~t_src path =
  let ii = Mrrg.ii mrrg in
  List.iter
    (fun (res, elapsed) ->
      let slot = Schedule.slot ~ii (t_src + elapsed) in
      Mrrg.occupy mrrg ~res ~slot { Mrrg.s_node = src_node; s_elapsed = elapsed })
    path

let release_path mrrg ~src_node ~t_src path =
  let ii = Mrrg.ii mrrg in
  List.iter
    (fun (res, elapsed) ->
      let slot = Schedule.slot ~ii (t_src + elapsed) in
      Mrrg.release mrrg ~res ~slot { Mrrg.s_node = src_node; s_elapsed = elapsed })
    path
