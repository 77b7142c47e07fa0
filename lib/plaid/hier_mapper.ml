open Plaid_ir
open Plaid_mapping

type params = {
  iterations : int;
  t_start : float;
  t_decay : float;
  restarts : int;
  templates : Motif.kind -> Templates.t list;
}

let default =
  { iterations = 20000; t_start = 10.0; t_decay = 0.9997; restarts = 6;
    templates = Templates.for_kind }

let quick = { default with iterations = 800; t_decay = 0.995; restarts = 2 }

type outcome = { mapping : Mapping.t option; hier : Motif_gen.hier; mii : int }

type mplace = { mutable m_pcu : int; mutable m_tmpl : Templates.t; mutable m_anchor : int }

type state = {
  plaid : Pcu.t;
  g : Dfg.t;
  ii : int;
  prm : params;
  hier : Motif_gen.hier;
  mrrg : Mrrg.t;
  times : int array;
  place : int array;
  table : Route_table.t;
  mplaces : mplace array;
}

let arch st = st.plaid.Pcu.arch

(* --- motif placement ------------------------------------------------- *)

let motif_slots st mi ~pcu ~tmpl ~anchor =
  let m = st.hier.Motif_gen.motifs.(mi) in
  let nodes = Array.of_list (Motif.nodes m) in
  Array.to_list
    (Array.mapi
       (fun k v ->
         let alu = st.plaid.Pcu.pcus.(pcu).Pcu.alus.(tmpl.Templates.alu_of.(k)) in
         let t = anchor + tmpl.Templates.offset.(k) in
         (v, alu, t))
       nodes)

let can_place_motif st mi ~pcu ~tmpl ~anchor =
  anchor >= 0
  && List.for_all
       (fun (_, alu, t) -> Mrrg.fu_free st.mrrg ~fu:alu ~slot:(Schedule.slot ~ii:st.ii t))
       (motif_slots st mi ~pcu ~tmpl ~anchor)

let place_motif st mi ~pcu ~tmpl ~anchor =
  List.iter
    (fun (v, alu, t) ->
      Mrrg.place_node st.mrrg ~node:v ~fu:alu ~slot:(Schedule.slot ~ii:st.ii t);
      st.place.(v) <- alu;
      st.times.(v) <- t)
    (motif_slots st mi ~pcu ~tmpl ~anchor);
  let mp = st.mplaces.(mi) in
  mp.m_pcu <- pcu;
  mp.m_tmpl <- tmpl;
  mp.m_anchor <- anchor

let unplace_motif st mi =
  let m = st.hier.Motif_gen.motifs.(mi) in
  List.iter
    (fun v ->
      Mrrg.unplace_node st.mrrg ~node:v ~fu:st.place.(v) ~slot:(Schedule.slot ~ii:st.ii st.times.(v)))
    (Motif.nodes m)

let motif_edges st mi =
  let m = st.hier.Motif_gen.motifs.(mi) in
  List.concat_map (fun v -> Route_table.incident st.table v) (Motif.nodes m)
  |> List.sort_uniq compare

(* --- initial placement ------------------------------------------------ *)

let pcu_load st pcu =
  let p = st.plaid.Pcu.pcus.(pcu) in
  let used = ref 0 in
  Array.iter
    (fun alu ->
      for s = 0 to st.ii - 1 do
        if not (Mrrg.fu_free st.mrrg ~fu:alu ~slot:s) then incr used
      done)
    p.Pcu.alus;
  !used

let try_place_motif_somewhere st mi ~base ~rng =
  let m = st.hier.Motif_gen.motifs.(mi) in
  let kind = m.Motif.kind in
  let nodes = Array.of_list (Motif.nodes m) in
  let pcus =
    List.init (Array.length st.plaid.Pcu.pcus) (fun i -> i)
    |> List.map (fun i -> (pcu_load st i, Plaid_util.Rng.int rng 1000, i))
    |> List.sort compare
    |> List.map (fun (_, _, i) -> i)
  in
  let templates = st.prm.templates kind in
  let rec over_pcus = function
    | [] -> false
    | pcu :: rest ->
      let rec over_tmpls = function
        | [] -> over_pcus rest
        | (tmpl : Templates.t) :: more ->
          let anchor0 =
            Array.to_list (Array.mapi (fun k v -> base.(v) - tmpl.Templates.offset.(k)) nodes)
            |> List.fold_left max 0
          in
          let rec over_anchor d =
            if d >= st.ii then over_tmpls more
            else if can_place_motif st mi ~pcu ~tmpl ~anchor:(anchor0 + d) then begin
              place_motif st mi ~pcu ~tmpl ~anchor:(anchor0 + d);
              true
            end
            else over_anchor (d + 1)
          in
          over_anchor 0
      in
      over_tmpls templates
  in
  over_pcus pcus

let try_place_standalone st v ~base ~rng =
  let op = (Dfg.node st.g v).op in
  let memory_node = Op.is_memory op || op = Op.Input in
  let a = arch st in
  let rec try_time d =
    if d >= st.ii then false
    else begin
      let t = base.(v) + d in
      let slot = Schedule.slot ~ii:st.ii t in
      let all =
        Array.to_list a.Plaid_arch.Arch.fus
        |> List.filter (fun fu ->
               Plaid_arch.Arch.fu_supports a fu op && Mrrg.fu_free st.mrrg ~fu ~slot)
      in
      (* compute nodes keep off the scarce memory-capable FUs when possible *)
      let preferred =
        if memory_node then all
        else
          match
            List.filter
              (fun fu ->
                match (Plaid_arch.Arch.resource a fu).kind with
                | Plaid_arch.Arch.Fu c -> not c.Plaid_arch.Arch.fu_memory
                | _ -> false)
              all
          with
          | [] -> all
          | l -> l
      in
      match preferred with
      | [] -> try_time (d + 1)
      | l ->
        let fu = List.nth l (Plaid_util.Rng.int rng (List.length l)) in
        Mrrg.place_node st.mrrg ~node:v ~fu ~slot;
        st.place.(v) <- fu;
        st.times.(v) <- t;
        true
    end
  in
  try_time 0

let init_state ?(params = default) plaid g hier ~ii ~base ~rng =
  let mrrg = Mrrg.create plaid.Pcu.arch ~ii in
  let n = Dfg.n_nodes g in
  let times = Array.make n 0 and place = Array.make n (-1) in
  let dummy_tmpl =
    match Templates.for_kind Motif.Unicast with t :: _ -> t | [] -> assert false
  in
  let mplaces =
    Array.map (fun _ -> { m_pcu = 0; m_tmpl = dummy_tmpl; m_anchor = 0 })
      hier.Motif_gen.motifs
  in
  (* The route table only tracks edges; creating it before placement is
     fine, as long as routing starts after every node is placed. *)
  let table = Route_table.create mrrg g ~times ~place in
  let st = { plaid; g; ii; prm = params; hier; mrrg; times; place; table; mplaces } in
  (* Sort motifs by earliest member base time: data-dependency order. *)
  let order =
    Array.to_list (Array.mapi (fun i m -> (i, m)) hier.Motif_gen.motifs)
    |> List.map (fun (i, m) ->
           (List.fold_left min max_int (List.map (fun v -> base.(v)) (Motif.nodes m)), i))
    |> List.sort compare
    |> List.map snd
  in
  let ok = List.for_all (fun mi -> try_place_motif_somewhere st mi ~base ~rng) order in
  let standalone = Motif_gen.standalone_nodes g hier in
  let ok =
    ok
    && List.for_all
         (fun v ->
           (* keep DFG topological order among standalones via base times *)
           try_place_standalone st v ~base ~rng)
         (List.sort (fun a b -> compare base.(a) base.(b)) standalone)
  in
  if not ok then None
  else begin
    Route_table.route_all st.table;
    Some st
  end

(* --- annealing moves --------------------------------------------------- *)

let standalone_move st v ~rng ~temp =
  let a = arch st in
  let old_fu = st.place.(v) and old_t = st.times.(v) in
  let old_slot = Schedule.slot ~ii:st.ii old_t in
  let retime = Plaid_util.Rng.int rng 2 = 0 in
  let new_fu, new_t =
    if retime then begin
      let lo, hi = Schedule.slack st.g ~times:st.times ~ii:st.ii ~node:v in
      let lo = max 0 (max lo (old_t - 2)) and hi = min hi (old_t + 2) in
      if hi <= lo then (old_fu, old_t)
      else (old_fu, lo + Plaid_util.Rng.int rng (hi - lo + 1))
    end
    else begin
      Mrrg.unplace_node st.mrrg ~node:v ~fu:old_fu ~slot:old_slot;
      let op = (Dfg.node st.g v).op in
      let cands =
        Array.to_list a.Plaid_arch.Arch.fus
        |> List.filter (fun fu ->
               Plaid_arch.Arch.fu_supports a fu op && Mrrg.fu_free st.mrrg ~fu ~slot:old_slot)
      in
      Mrrg.place_node st.mrrg ~node:v ~fu:old_fu ~slot:old_slot;
      match cands with
      | [] -> (old_fu, old_t)
      | l -> (List.nth l (Plaid_util.Rng.int rng (List.length l)), old_t)
    end
  in
  let new_slot = Schedule.slot ~ii:st.ii new_t in
  let put ~fu_from ~slot_from ~fu ~slot ~t =
    Mrrg.unplace_node st.mrrg ~node:v ~fu:fu_from ~slot:slot_from;
    Mrrg.place_node st.mrrg ~node:v ~fu ~slot;
    st.place.(v) <- fu;
    st.times.(v) <- t
  in
  (new_fu <> old_fu || new_t <> old_t)
  && ((new_fu = old_fu && new_slot = old_slot) || Mrrg.fu_free st.mrrg ~fu:new_fu ~slot:new_slot)
  && Anneal_core.try_move st.table ~edges:(Route_table.incident st.table v)
       ~apply:(fun () ->
         put ~fu_from:old_fu ~slot_from:old_slot ~fu:new_fu ~slot:new_slot ~t:new_t;
         true)
       ~undo:(fun () ->
         put ~fu_from:new_fu ~slot_from:new_slot ~fu:old_fu ~slot:old_slot ~t:old_t)
       ~rng ~temp

(* Swap the FUs of two standalone nodes — same escape hatch as the baseline
   annealer's swap move; motif members move via their motif instead. *)
let standalone_swap st v w ~rng ~temp =
  let a = arch st in
  let fu_v = st.place.(v) and fu_w = st.place.(w) in
  if
    v <> w
    && st.hier.Motif_gen.owner.(v) = -1
    && st.hier.Motif_gen.owner.(w) = -1
    && fu_v <> fu_w
    && Plaid_arch.Arch.fu_supports a fu_w (Dfg.node st.g v).op
    && Plaid_arch.Arch.fu_supports a fu_v (Dfg.node st.g w).op
  then begin
    let sl_v = Schedule.slot ~ii:st.ii st.times.(v) in
    let sl_w = Schedule.slot ~ii:st.ii st.times.(w) in
    let put ~fv ~fw =
      Mrrg.place_node st.mrrg ~node:v ~fu:fv ~slot:sl_v;
      Mrrg.place_node st.mrrg ~node:w ~fu:fw ~slot:sl_w;
      st.place.(v) <- fv;
      st.place.(w) <- fw
    in
    Mrrg.unplace_node st.mrrg ~node:v ~fu:fu_v ~slot:sl_v;
    Mrrg.unplace_node st.mrrg ~node:w ~fu:fu_w ~slot:sl_w;
    if Mrrg.fu_free st.mrrg ~fu:fu_w ~slot:sl_v && Mrrg.fu_free st.mrrg ~fu:fu_v ~slot:sl_w
    then
      Anneal_core.try_move st.table
        ~edges:
          (List.sort_uniq compare
             (Route_table.incident st.table v @ Route_table.incident st.table w))
        ~apply:(fun () ->
          put ~fv:fu_w ~fw:fu_v;
          true)
        ~undo:(fun () ->
          Mrrg.unplace_node st.mrrg ~node:v ~fu:fu_w ~slot:sl_v;
          Mrrg.unplace_node st.mrrg ~node:w ~fu:fu_v ~slot:sl_w;
          put ~fv:fu_v ~fw:fu_w)
        ~rng ~temp
    else begin
      put ~fv:fu_v ~fw:fu_w;
      false
    end
  end
  else false

(* Re-place a motif at one of 8 drawn (PCU, template, anchor) candidates.
   When none fits, the motif goes back to its old spot and the move is
   declined: no Metropolis draw, but its edges still make the route and
   release round trip. *)
let motif_move st mi ~rng ~temp =
  let mp = st.mplaces.(mi) in
  let opcu = mp.m_pcu and otmpl = mp.m_tmpl and oanchor = mp.m_anchor in
  let kind = st.hier.Motif_gen.motifs.(mi).Motif.kind in
  let templates = Array.of_list (st.prm.templates kind) in
  let rec draw k =
    if k = 0 then None
    else begin
      let pcu = Plaid_util.Rng.int rng (Array.length st.plaid.Pcu.pcus) in
      let tmpl = templates.(Plaid_util.Rng.int rng (Array.length templates)) in
      let anchor = max 0 (oanchor - 2 + Plaid_util.Rng.int rng 5) in
      if can_place_motif st mi ~pcu ~tmpl ~anchor then Some (pcu, tmpl, anchor) else draw (k - 1)
    end
  in
  let restore () = place_motif st mi ~pcu:opcu ~tmpl:otmpl ~anchor:oanchor in
  Anneal_core.try_move st.table ~edges:(motif_edges st mi)
    ~apply:(fun () ->
      unplace_motif st mi;
      match draw 8 with
      | Some (pcu, tmpl, anchor) ->
        place_motif st mi ~pcu ~tmpl ~anchor;
        true
      | None ->
        restore ();
        false)
    ~undo:(fun () ->
      unplace_motif st mi;
      restore ())
    ~rng ~temp

let to_mapping st =
  { Mapping.arch = arch st; dfg = st.g; ii = st.ii; times = Array.copy st.times;
    place = Array.copy st.place; routes = Route_table.routes st.table }

let run_once ?(params = default) plaid g hier ~ii ~base ~rng =
  match Explain.phase "place" (fun () -> init_state ~params plaid g hier ~ii ~base ~rng) with
  | None -> None
  | Some st ->
    Explain.phase "route" @@ fun () ->
    let n = Dfg.n_nodes g in
    let step ~temp =
      let v = Plaid_util.Rng.int rng n in
      ignore
        (match st.hier.Motif_gen.owner.(v) with
        | -1 ->
          if Plaid_util.Rng.int rng 4 = 0 then
            standalone_swap st v (Plaid_util.Rng.int rng n) ~rng ~temp
          else standalone_move st v ~rng ~temp
        | mi -> motif_move st mi ~rng ~temp)
    in
    ignore
      (Anneal_core.run st.table ~iterations:params.iterations ~t_start:params.t_start
         ~t_decay:params.t_decay ~step);
    if Route_table.unrouted st.table = 0 then Some (to_mapping st) else None

(* --- II-1 port bound ---------------------------------------------------- *)

(* Distinct nodes outside motif [m] with a data edge, of any distance, into
   one of its members. *)
let n_outside_sources g m =
  let members = Motif.nodes m in
  List.concat_map (Dfg.preds g) members
  |> List.filter_map (fun (e : Dfg.edge) ->
         if Dfg.is_ordering e || List.mem e.src members then None else Some e.src)
  |> List.sort_uniq compare
  |> List.length

let port_bound_admits g hier ~ii =
  ii > 1
  || Array.for_all
       (fun m -> n_outside_sources g m <= Pcu.global_in_legs)
       hier.Motif_gen.motifs

(* One RNG is threaded through the IIs: a failed II draws one stream per
   restart per schedule, and so does a port-bound skip, so II [k]'s stream
   is {!Driver.threaded_stream} over the schedule counts below [k]. *)
let map_hier ?(params = default) ~plaid ~hier ~seed g =
  let cap = Plaid_arch.Arch.capacity plaid.Pcu.arch in
  let mii = Analysis.mii g cap in
  let max_ii = plaid.Pcu.arch.Plaid_arch.Arch.config.entries in
  (* inter-PCU hops cost two cycles (result register + conveyor-belt
     register), so prefer a schedule with a two-cycle budget per edge;
     larger fabrics may need a third cycle of slack, and recurrence-bound
     kernels fall back to the tight schedule *)
  let memo = Plaid_util.Memo.create 16 in
  let schedules ii =
    Plaid_util.Memo.find_or_compute memo ii (fun () ->
        List.filter_map (fun lat -> Schedule.compute ~lat g ~ii ~cap) [ 2; 3; 1 ])
  in
  let attempt ii =
    let bases = Explain.phase "schedule" (fun () -> schedules ii) in
    if port_bound_admits g hier ~ii then
      let rng =
        Driver.threaded_stream ~seed ~mii
          ~draws:(fun i -> params.restarts * List.length (schedules i))
          ii
      in
      List.find_map
        (fun base ->
          Anneal_core.first_success ~restarts:params.restarts ~rng (fun rng ->
              run_once ~params plaid g hier ~ii ~base ~rng))
        bases
    else Explain.phase "port-bound" (fun () -> None)
  in
  let o = Driver.search ~name:"hier" ~seed ~mii ~max_ii attempt in
  { mapping = o.Driver.mapping; hier; mii }

(* The motif cover is a cheap deterministic function of (seed, dfg); it is
   exposed so a mapping-cache hit can rebuild the full outcome without
   re-running the anneal. *)
let default_hier ~seed dfg =
  let rng = Plaid_util.Rng.create ((seed * 31) + 17) in
  Motif_gen.generate ~rng dfg

let map ?(params = default) ~plaid ~seed dfg =
  let hier = default_hier ~seed dfg in
  map_hier ~params ~plaid ~hier ~seed dfg
