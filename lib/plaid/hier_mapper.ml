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
  core : Anneal_core.state;
  plaid : Pcu.t;
  prm : params;
  hier : Motif_gen.hier;
  mplaces : mplace array;
}

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
       (fun (_, alu, t) -> Mrrg.fu_free st.core.mrrg ~fu:alu ~slot:(Schedule.slot ~ii:st.core.ii t))
       (motif_slots st mi ~pcu ~tmpl ~anchor)

let place_motif st mi ~pcu ~tmpl ~anchor =
  List.iter
    (fun (v, alu, t) ->
      Mrrg.place_node st.core.mrrg ~node:v ~fu:alu ~slot:(Schedule.slot ~ii:st.core.ii t);
      st.core.place.(v) <- alu;
      st.core.times.(v) <- t)
    (motif_slots st mi ~pcu ~tmpl ~anchor);
  let mp = st.mplaces.(mi) in
  mp.m_pcu <- pcu;
  mp.m_tmpl <- tmpl;
  mp.m_anchor <- anchor

let unplace_motif st mi =
  let m = st.hier.Motif_gen.motifs.(mi) and c = st.core in
  List.iter
    (fun v ->
      Mrrg.unplace_node c.mrrg ~node:v ~fu:c.place.(v) ~slot:(Schedule.slot ~ii:c.ii c.times.(v)))
    (Motif.nodes m)

let motif_edges st mi =
  let m = st.hier.Motif_gen.motifs.(mi) in
  List.concat_map (fun v -> Route_table.incident st.core.table v) (Motif.nodes m)
  |> List.sort_uniq compare

(* --- initial placement ------------------------------------------------ *)

let pcu_load st pcu =
  let p = st.plaid.Pcu.pcus.(pcu) in
  let used = ref 0 in
  Array.iter
    (fun alu ->
      for s = 0 to st.core.ii - 1 do
        if not (Mrrg.fu_free st.core.mrrg ~fu:alu ~slot:s) then incr used
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
            if d >= st.core.ii then over_tmpls more
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
  let op = (Dfg.node st.core.g v).op in
  let memory_node = Op.is_memory op || op = Op.Input in
  let rec try_time d =
    if d >= st.core.ii then false
    else begin
      let t = base.(v) + d in
      let slot = Schedule.slot ~ii:st.core.ii t in
      let all = Greedy.compatible_fus st.core.mrrg st.core.g ~node:v ~slot in
      (* compute nodes keep off the scarce memory-capable FUs when possible *)
      let preferred =
        if memory_node then all
        else
          match
            List.filter
              (fun fu ->
                match (Plaid_arch.Arch.resource st.core.arch fu).kind with
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
        Mrrg.place_node st.core.mrrg ~node:v ~fu ~slot;
        st.core.place.(v) <- fu;
        st.core.times.(v) <- t;
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
  let core = { Anneal_core.arch = plaid.Pcu.arch; g; ii; mrrg; times; place; table } in
  let st = { core; plaid; prm = params; hier; mplaces } in
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
    Route_table.route_all st.core.table;
    Some st
  end

(* --- annealing moves --------------------------------------------------- *)

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
  Anneal_core.try_move st.core.table ~edges:(motif_edges st mi)
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
        | -1 -> (
          match Plaid_util.Rng.int rng 4 with
          | 0 ->
            (* motif members move with their motif, never by a swap *)
            let w = Plaid_util.Rng.int rng n in
            st.hier.Motif_gen.owner.(w) = -1 && Anneal_core.swap st.core v w ~rng ~temp
          | _ -> Anneal_core.move st.core v ~earliest:0 ~rng ~temp)
        | mi -> motif_move st mi ~rng ~temp)
    in
    ignore
      (Anneal_core.run st.core.table ~iterations:params.iterations ~t_start:params.t_start
         ~t_decay:params.t_decay ~step);
    if Route_table.unrouted st.core.table = 0 then Some (Anneal_core.to_mapping st.core) else None

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
