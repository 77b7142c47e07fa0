module Obs = Plaid_obs

type mode =
  | Hard
  | Soft of { present_factor : float; history : float array array }

type path = (int * int) list

let max_detour = 64

let m_finds = Obs.Metrics.counter "route/finds"
let m_memo_hits = Obs.Metrics.counter "route/memo_hits"
let m_memo_misses = Obs.Metrics.counter "route/memo_misses"

(* ------------------------------------------------------------ cost model *)

let usable mrrg ~mode ~res ~slot signal =
  match mode with
  | Hard -> Mrrg.can_use mrrg ~res ~slot signal
  | Soft _ ->
    (* Nodes pin FUs exclusively even under negotiation, and faulted cells
       are never negotiable; other wires are open at a price. *)
    (not (Mrrg.blocked mrrg ~res ~slot))
    && (match Mrrg.node_at mrrg ~fu:res ~slot with
       | Some _ -> false
       | None -> true)

let step_cost mrrg ~mode ~res ~slot =
  let base = Plaid_arch.Arch.base_route_cost (Mrrg.arch mrrg) res in
  match mode with
  | Hard -> base
  | Soft { present_factor; history } ->
    let present = float_of_int (Mrrg.presence mrrg ~res ~slot) in
    (base *. (1.0 +. (present_factor *. present))) +. history.(res).(slot)

(* -------------------------------------------------------- search helpers *)

(* A path must not reuse a (resource, slot) cell at a different elapsed
   time: the value would collide with itself one iteration apart (e.g. a
   register held for >= II cycles).  Under a frozen (spatial)
   configuration any second visit at a different delay conflicts — a
   static mux cannot feed the same wire twice.  Since the search finalizes
   prev chains at pop time, walking the popped state's chain is sound. *)
let chain_conflict ~prev ~start ~len1 ~ii ~exclusive s_popped res' e' =
  let rec walk s =
    if s = start then false
    else begin
      let r = s / len1 and e = s mod len1 in
      (r = res' && e <> e' && (exclusive || (e - e') mod ii = 0)) || walk prev.(s)
    end
  in
  walk s_popped

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

(* ----------------------------------------------------------- query memo *)

(* One probe records everything the search observed about a (res, slot)
   cell: its occupancy snapshot and (in soft mode) the history cost in
   force.  Signal lists are immutable values — Mrrg mutations replace the
   list — so storing the reference is a faithful snapshot. *)
type probe = {
  p_res : int;
  p_slot : int;
  p_exec : int option;
  p_signals : (Mrrg.signal * int) list;
  p_hist : float;
}

type memo_entry = {
  me_pf : float;  (* negotiation present_factor; 0.0 in hard mode *)
  me_probes : probe array;
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
   cell the search probed still holds the probed values (occupancy and
   history), and the present-congestion factor either matches or cannot
   matter (the probed cell was empty, so [pf *. presence] is 0 either
   way).  By induction over the search, identical probe values imply an
   identical probe set and identical decisions throughout. *)
let memo_valid mrrg ~mode entry =
  let pf = match mode with Hard -> 0.0 | Soft s -> s.present_factor in
  let hist = match mode with Hard -> None | Soft s -> Some s.history in
  let ok = ref true in
  let n = Array.length entry.me_probes in
  let i = ref 0 in
  while !ok && !i < n do
    let p = entry.me_probes.(!i) in
    let c = Mrrg.cell mrrg p.p_res p.p_slot in
    let presence = List.length p.p_signals + match p.p_exec with Some _ -> 1 | None -> 0 in
    ok :=
      c.Mrrg.exec = p.p_exec
      && c.Mrrg.signals = p.p_signals
      && (match hist with None -> true | Some h -> h.(p.p_res).(p.p_slot) = p.p_hist)
      && (presence = 0 || entry.me_pf = pf);
    incr i
  done;
  !ok

(* ---------------------------------------------------------- search core *)

(* Per-domain scratch arena: epoch-stamped dist/prev/popped state arrays,
   a reusable indexed heap, and a footprint-mark array for memo probe
   deduplication.  A search touches only the states it explores; bumping
   the epoch invalidates everything in O(1). *)
type arena = {
  mutable a_dist : float array;
  mutable a_prev : int array;
  mutable a_stamp : int array;    (* state valid iff = a_epoch *)
  mutable a_pop : int array;      (* state popped iff = a_epoch *)
  mutable a_cmark : int array;    (* cell probed iff = a_epoch *)
  mutable a_epoch : int;
  a_heap : Plaid_util.Iheap.t;
}

let arena_key : arena Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { a_dist = [||]; a_prev = [||]; a_stamp = [||]; a_pop = [||]; a_cmark = [||];
        a_epoch = 0; a_heap = Plaid_util.Iheap.create () })

let ensure_arena a ~nstates ~ncells =
  if Array.length a.a_stamp < nstates then begin
    let cap = max nstates (2 * Array.length a.a_stamp) in
    a.a_dist <- Array.make cap infinity;
    a.a_prev <- Array.make cap (-1);
    a.a_stamp <- Array.make cap 0;
    a.a_pop <- Array.make cap 0
  end;
  if Array.length a.a_cmark < ncells then
    a.a_cmark <- Array.make (max ncells (2 * Array.length a.a_cmark)) 0;
  Plaid_util.Iheap.reserve a.a_heap nstates;
  Plaid_util.Iheap.clear a.a_heap;
  a.a_epoch <- a.a_epoch + 1

(* A* search over states [res * (length+1) + elapsed], using the
   architecture's hop table as a consistent lower bound (every non-target
   step costs >= 1.0 and the target entry is free, so [hops - 1] never
   overestimates), the latency table to prune states that cannot reach the
   target within the remaining cycle budget (such states are never on any
   surviving prev chain), CSR adjacency, and an indexed heap with
   decrease-key.  Optionally records the probe footprint for the memo. *)
let search mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode ~record =
  let arch = Mrrg.arch mrrg in
  let n = Plaid_arch.Arch.n_resources arch in
  let fu_ok = arch.Plaid_arch.Arch.allow_fu_routethrough in
  let rt = Plaid_arch.Arch.route_tables arch in
  let len1 = length + 1 in
  let nstates = n * len1 in
  let ii = Mrrg.ii mrrg in
  let a = Domain.DLS.get arena_key in
  (* Probe marks are per (res, modulo slot) — NOT per collapsed cell: on an
     exclusive MRRG occupancy collapses to one cell but the negotiation
     history keeps one entry per slot, and each consulted entry must land
     in the footprint. *)
  ensure_arena a ~nstates ~ncells:(n * ii);
  let epoch = a.a_epoch in
  let dist = a.a_dist and prev = a.a_prev and stamp = a.a_stamp and pop = a.a_pop in
  let heap = a.a_heap in
  let probes = ref [] in
  let probe res slot soft_hist =
    let idx = (res * ii) + slot in
    if a.a_cmark.(idx) <> epoch then begin
      a.a_cmark.(idx) <- epoch;
      let c = Mrrg.cell mrrg res slot in
      probes :=
        { p_res = res; p_slot = slot; p_exec = c.Mrrg.exec; p_signals = c.Mrrg.signals;
          p_hist = soft_hist }
        :: !probes
    end
  in
  let hist = match mode with Hard -> None | Soft s -> Some s.history in
  let lat_base = dst_fu * n and hop_base = dst_fu * n in
  let h res =
    let hops = Char.code (Bytes.unsafe_get rt.Plaid_arch.Arch.rt_hop (hop_base + res)) in
    float_of_int (max 0 (hops - 1))
  in
  let exclusive = Mrrg.exclusive mrrg in
  let start = src_fu * len1 in
  let target = (dst_fu * len1) + length in
  stamp.(start) <- epoch;
  dist.(start) <- 0.0;
  prev.(start) <- -1;
  pop.(start) <- 0;
  Plaid_util.Iheap.insert heap start ~key:(h src_fu) ~sec:0.0;
  let dist_target = ref infinity in
  let finished = ref false in
  while not !finished do
    let s = Plaid_util.Iheap.pop heap in
    if s < 0 then finished := true
    else begin
      let g = dist.(s) in
      let res = s / len1 and elapsed = s mod len1 in
      (* Keep draining until the popped priority strictly exceeds the best
         target distance: equal-priority states may still rewrite
         [prev target] under the canonical tie rule. *)
      if g +. h res > !dist_target then finished := true
      else begin
        pop.(s) <- epoch;
        if s <> target then begin
          let k0 = rt.Plaid_arch.Arch.rt_adj_idx.(res) in
          let k1 = rt.Plaid_arch.Arch.rt_adj_idx.(res + 1) in
          for k = k0 to k1 - 1 do
            let dst = Array.unsafe_get rt.Plaid_arch.Arch.rt_adj_dst k in
            let lat = Array.unsafe_get rt.Plaid_arch.Arch.rt_adj_lat k in
            let e' = elapsed + lat in
            if e' <= length then begin
              let is_target = dst = dst_fu && e' = length in
              let live =
                is_target
                || Char.code (Bytes.unsafe_get rt.Plaid_arch.Arch.rt_lat (lat_base + dst))
                   <= length - e'
              in
              if live then begin
                let intermediate_fu =
                  match (Plaid_arch.Arch.resource arch dst).kind with
                  | Plaid_arch.Arch.Fu _ -> not is_target
                  | _ -> false
                in
                if (not intermediate_fu) || fu_ok then begin
                  let slot = Schedule.slot ~ii (t_src + e') in
                  let cell_hist =
                    match hist with None -> 0.0 | Some hh -> hh.(dst).(slot)
                  in
                  if record && not is_target then probe dst slot cell_hist;
                  let signal = { Mrrg.s_node = src_node; s_elapsed = e' } in
                  let passable =
                    if is_target then true
                    else
                      usable mrrg ~mode ~res:dst ~slot signal
                      && not (chain_conflict ~prev ~start ~len1 ~ii ~exclusive s dst e')
                  in
                  if passable then begin
                    let c = if is_target then 0.0 else step_cost mrrg ~mode ~res:dst ~slot in
                    let nd = g +. c in
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
                      if is_target then dist_target := nd;
                      let key = nd +. h dst in
                      if Plaid_util.Iheap.contains heap s' then
                        Plaid_util.Iheap.decrease heap s' ~key ~sec:nd
                      else Plaid_util.Iheap.insert heap s' ~key ~sec:nd
                    end
                    else if
                      nd = dist.(s') && s < prev.(s')
                      && (pop.(s') <> epoch || s' = target)
                    then prev.(s') <- s
                  end
                end
              end
            end
          done
        end
      end
    end
  done;
  let result =
    if !dist_target = infinity then None
    else Some (reconstruct ~prev ~start ~len1 ~dst_fu ~length target, !dist_target)
  in
  (result, !probes)

(* ----------------------------------------------------------------- find *)

let find mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode =
  Obs.Metrics.incr m_finds;
  if length < 0 || length > max_detour then None
  else if length = 0 then
    (* A zero-elapsed edge is routable exactly when producer and consumer
       share the FU: the value is consumed the cycle it is produced, over
       no routing resources (the empty path trivially satisfies
       chain_conflict's no-revisit invariant).  Distinct FUs would need a
       combinational path out of an FU, which the architecture contract
       (FU out-links have latency 1) rules out. *)
    if src_fu = dst_fu then Some ([], 0.0) else None
  else begin
    let arch = Mrrg.arch mrrg in
    let n = Plaid_arch.Arch.n_resources arch in
    let ii = Mrrg.ii mrrg in
    if not (memo_keyable ~n ~ii ~src_node) then
      fst (search mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode ~record:false)
    else begin
      let soft, pf =
        match mode with Hard -> (false, 0.0) | Soft s -> (true, s.present_factor)
      in
      let slot0 = Schedule.slot ~ii t_src in
      let key = memo_key ~soft ~src_fu ~dst_fu ~length ~slot0 ~src_node in
      let memo = memo_of mrrg in
      match Hashtbl.find_opt memo.memo_tbl key with
      | Some entry when memo_valid mrrg ~mode entry ->
        Obs.Metrics.incr m_memo_hits;
        entry.me_result
      | _ ->
        Obs.Metrics.incr m_memo_misses;
        let result, probes =
          search mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode ~record:true
        in
        if Hashtbl.length memo.memo_tbl >= memo_capacity then
          Hashtbl.reset memo.memo_tbl;
        Hashtbl.replace memo.memo_tbl key
          { me_pf = pf; me_probes = Array.of_list probes; me_result = result };
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
