open Plaid_ir
module Obs = Plaid_obs

let m_iterations = Obs.Metrics.counter "pf/iterations"
let m_ripups = Obs.Metrics.counter "pf/ripups"
let m_rerouted = Obs.Metrics.counter "pf/rerouted_edges"
let m_kept = Obs.Metrics.counter "pf/kept_edges"
let h_overuse = Obs.Metrics.histogram "pf/overuse"

type params = {
  max_iters : int;
  history_increment : float;
  present_factor_step : float;
  replace_after : int;
}

let default =
  { max_iters = 60; history_increment = 0.6; present_factor_step = 0.4; replace_after = 8 }

let quick = { max_iters = 30; history_increment = 0.8; present_factor_step = 0.6; replace_after = 5 }

(* Hottest over-subscribed cell; ties keep the smallest (res, slot), which
   [Mrrg.overused_cells]'s sort order gives for free. *)
let most_contested mrrg =
  List.fold_left
    (fun best (res, slot, p) ->
      match best with
      | Some (bp, _, _) when bp >= p -> best
      | _ -> Some (p, res, slot))
    None (Mrrg.overused_cells mrrg)

let update_history mrrg history ~increment =
  let ii = Mrrg.ii mrrg in
  let exclusive = Mrrg.exclusive mrrg in
  List.iter
    (fun (res, slot, _) ->
      (* an exclusive (clock-gated) cell stands for every modulo slot, and
         the router prices history per actual slot *)
      if exclusive then
        for s = 0 to ii - 1 do
          history.(res).(s) <- history.(res).(s) +. increment
        done
      else history.(res).(slot) <- history.(res).(slot) +. increment)
    (Mrrg.overused_cells mrrg)

(* Move [node] to a compatible free FU, preferring tiles whose Manhattan
   distance to [other_tile] best matches the edge's cycle budget.  [touch]
   rips the routes incident to a node that actually moves. *)
let replace_towards mrrg g ~place ~node ~slot ~other_tile ~budget ~touch ~rng =
  let arch = Mrrg.arch mrrg in
  Mrrg.unplace_node mrrg ~node ~fu:place.(node) ~slot;
  let cands = Greedy.compatible_fus mrrg g ~node ~slot in
  match cands with
  | [] -> Mrrg.place_node mrrg ~node ~fu:place.(node) ~slot
  | _ ->
    let score fu =
      let d = Greedy.manhattan (Plaid_arch.Arch.resource arch fu).tile other_tile in
      (abs (d - budget), Plaid_util.Rng.int rng 1000)
    in
    let best =
      List.fold_left
        (fun (bs, bfu) fu ->
          let s = score fu in
          if s < bs then (s, fu) else (bs, bfu))
        ((max_int, 0), place.(node))
        cands
      |> snd
    in
    if best <> place.(node) then touch node;
    Mrrg.place_node mrrg ~node ~fu:best ~slot;
    place.(node) <- best

(* Move one node one cycle later if its FU slot allows.  [touch] runs
   before the time changes so incident routes are released against the
   producer times they were occupied under. *)
let shift_node mrrg ~times ~place ~node ~ii ~touch =
  let t = times.(node) in
  let fu = place.(node) in
  let old_slot = Schedule.slot ~ii t and new_slot = Schedule.slot ~ii (t + 1) in
  if new_slot = old_slot then begin
    touch node;
    times.(node) <- t + 1;
    true
  end
  else begin
    Mrrg.unplace_node mrrg ~node ~fu ~slot:old_slot;
    if Mrrg.fu_free mrrg ~fu ~slot:new_slot then begin
      touch node;
      Mrrg.place_node mrrg ~node ~fu ~slot:new_slot;
      times.(node) <- t + 1;
      true
    end
    else begin
      Mrrg.place_node mrrg ~node ~fu ~slot:old_slot;
      false
    end
  end

(* Give the consumer one more cycle of routing budget.  When downstream
   nodes pin its slack, push them later first (bounded cascade along the
   chain — the sink of the chain always has open slack). *)
let rec retime_later mrrg g ~times ~place ~node ~ii ~depth ~touch =
  let _, hi = Schedule.slack g ~times ~ii ~node in
  let t = times.(node) in
  if t + 1 <= hi then shift_node mrrg ~times ~place ~node ~ii ~touch
  else if depth = 0 then false
  else begin
    (* push every successor that makes the deadline tight *)
    let pushed_all =
      List.fold_left
        (fun acc (e : Dfg.edge) ->
          if e.dst = node then acc
          else begin
            let deadline = times.(e.dst) - 1 + (e.dist * ii) in
            if deadline <= t then
              acc && retime_later mrrg g ~times ~place ~node:e.dst ~ii ~depth:(depth - 1) ~touch
            else acc
          end)
        true (Dfg.succs g node)
    in
    if pushed_all then begin
      let _, hi = Schedule.slack g ~times ~ii ~node in
      t + 1 <= hi && shift_node mrrg ~times ~place ~node ~ii ~touch
    end
    else false
  end

let repair_unrouted mrrg g ~times ~place ~paths ~touch ~rng =
  let arch = Mrrg.arch mrrg in
  let ii = Mrrg.ii mrrg in
  Array.iteri
    (fun i p ->
      if p = None then begin
        Obs.Metrics.incr m_ripups;
        let e = g.Dfg.edges.(i) in
        let budget = times.(e.dst) - times.(e.src) + (e.dist * ii) in
        let src_tile = (Plaid_arch.Arch.resource arch place.(e.src)).tile in
        let dst_tile = (Plaid_arch.Arch.resource arch place.(e.dst)).tile in
        match Plaid_util.Rng.int rng 3 with
        | 0 ->
          replace_towards mrrg g ~place ~node:e.dst ~slot:(Schedule.slot ~ii times.(e.dst))
            ~other_tile:src_tile ~budget ~touch ~rng
        | 1 when e.src <> e.dst ->
          replace_towards mrrg g ~place ~node:e.src ~slot:(Schedule.slot ~ii times.(e.src))
            ~other_tile:dst_tile ~budget ~touch ~rng
        | _ -> ignore (retime_later mrrg g ~times ~place ~node:e.dst ~ii ~depth:8 ~touch)
      end)
    paths

(* Negotiation is incremental: placements and routed paths persist across
   iterations.  An edge is re-routed only when it is dirty —

   - it was never routed (or its last attempt failed);
   - its current path crosses a (resource, slot) cell that is
     over-subscribed at the top of the iteration (classic PathFinder
     rip-up, restricted to the contested cells); or
   - a repair moved or retimed one of its endpoints ([touch] below rips
     incident routes *before* the placement/time mutation so release uses
     the producer time the path was occupied under).

   Clean edges keep their wires and their occupancy; with congestion
   typically local, late rounds re-route a handful of edges instead of
   every edge, which is where the mapper's hot-path speedup comes from.
   Both router search cores run under this same negotiation, so the
   differential gate compares exactly the search cores. *)
let map_at_ii arch g ~ii ~times ~params ~rng =
  Obs.Trace.with_span ~cat:"pf" "pf.map_at_ii"
    ~args:[ ("ii", string_of_int ii) ]
    ~result:(function Some _ -> [ ("mapped", "true") ] | None -> [ ("mapped", "false") ])
  @@ fun () ->
  let mrrg = Mrrg.create arch ~ii in
  let times = Array.copy times in
  match Explain.phase "place" (fun () -> Greedy.initial_place mrrg g ~times ~rng) with
  | None -> None
  | Some place ->
    Explain.phase "route" @@ fun () ->
    let n_res = Plaid_arch.Arch.n_resources arch in
    let exclusive = Mrrg.exclusive mrrg in
    let history = Array.make_matrix n_res ii 0.0 in
    let ne = Array.length g.Dfg.edges in
    let paths : Route.path option array = Array.make ne None in
    let incident = Array.make (Dfg.n_nodes g) [] in
    Array.iteri
      (fun i (e : Dfg.edge) ->
        incident.(e.src) <- i :: incident.(e.src);
        if e.dst <> e.src then incident.(e.dst) <- i :: incident.(e.dst))
      g.Dfg.edges;
    let release_edge i =
      match paths.(i) with
      | None -> ()
      | Some p ->
        let e = g.Dfg.edges.(i) in
        if not (Dfg.is_ordering e) then
          Route.release_path mrrg ~src_node:e.src ~t_src:times.(e.src) p;
        paths.(i) <- None
    in
    let touch v = List.iter release_edge incident.(v) in
    let result = ref None in
    let stall = ref 0 in
    let best_score = ref max_int in
    let iter = ref 0 in
    (* abort negotiation when two placement kicks in a row changed nothing *)
    let hopeless = 3 * params.replace_after in
    let since_best = ref 0 in
    while !result = None && !iter < params.max_iters && !since_best < hopeless do
      incr iter;
      let mode =
        Route.Soft
          { present_factor = params.present_factor_step *. float_of_int !iter; history }
      in
      (* rip-up: snapshot the contested cells, then release every routed
         edge whose path crosses one (the snapshot keeps the dirty set
         well-defined while releases shrink live presence) *)
      (match Mrrg.overused_cells mrrg with
      | [] -> ()
      | hot_cells ->
        let hot = Hashtbl.create 32 in
        List.iter (fun (res, slot, _) -> Hashtbl.replace hot (res, slot) ()) hot_cells;
        Array.iteri
          (fun i p ->
            match p with
            | None | Some [] -> ()
            | Some path ->
              let e = g.Dfg.edges.(i) in
              let t_src = times.(e.src) in
              let crosses =
                List.exists
                  (fun (res, elapsed) ->
                    let slot = if exclusive then 0 else Schedule.slot ~ii (t_src + elapsed) in
                    Hashtbl.mem hot (res, slot))
                  path
              in
              if crosses then begin
                Obs.Metrics.incr m_ripups;
                release_edge i
              end)
          paths);
      (* reroute: only the dirty edges, in edge-index order *)
      let rerouted = ref 0 in
      for i = 0 to ne - 1 do
        if paths.(i) = None then begin
          incr rerouted;
          let e = g.Dfg.edges.(i) in
          let length = times.(e.dst) - times.(e.src) + (e.dist * ii) in
          if Dfg.is_ordering e then begin
            if length >= 1 then paths.(i) <- Some []
          end
          else
            match
              Route.find mrrg ~src_fu:place.(e.src) ~src_node:e.src ~t_src:times.(e.src)
                ~dst_fu:place.(e.dst) ~length ~mode
            with
            | None -> ()
            | Some (path, _cost) ->
              Route.occupy_path mrrg ~src_node:e.src ~t_src:times.(e.src) path;
              paths.(i) <- Some path
        end
      done;
      let unrouted = ref 0 in
      Array.iter (fun p -> if p = None then incr unrouted) paths;
      let unrouted = !unrouted in
      let ou = Mrrg.overuse mrrg in
      (* One observation per negotiation round traces how congestion decays
         as history costs accumulate. *)
      Obs.Metrics.incr m_iterations;
      Obs.Metrics.add m_rerouted !rerouted;
      Obs.Metrics.add m_kept (ne - !rerouted);
      Obs.Metrics.observe h_overuse (float_of_int ou);
      if unrouted = 0 && ou = 0 then begin
        let routes =
          Array.to_list (Array.mapi (fun i p -> (i, p)) paths)
          |> List.filter_map (fun (i, p) ->
                 if Dfg.is_ordering g.Dfg.edges.(i) then None
                 else
                   Option.map
                     (fun path -> { Mapping.re_edge = g.Dfg.edges.(i); re_path = path })
                     p)
        in
        result :=
          Some
            { Mapping.arch; dfg = g; ii; times = Array.copy times; place = Array.copy place;
              routes }
      end
      else begin
        update_history mrrg history ~increment:params.history_increment;
        if unrouted > 0 then repair_unrouted mrrg g ~times ~place ~paths ~touch ~rng;
        let score = (unrouted * 100) + ou in
        if score < !best_score then begin
          best_score := score;
          stall := 0;
          since_best := 0
        end
        else begin
          incr stall;
          incr since_best
        end;
        (* Negotiation stalled on congestion: kick a node off the hottest
           resource's tile and let it re-negotiate from elsewhere. *)
        if !stall >= params.replace_after then begin
          stall := 0;
          match most_contested mrrg with
          | None -> ()
          | Some (_, res, _) ->
            let hot_tile = (Plaid_arch.Arch.resource arch res).tile in
            let victims =
              Array.to_list (Array.mapi (fun v fu -> (v, fu)) place)
              |> List.filter (fun (_, fu) -> (Plaid_arch.Arch.resource arch fu).tile = hot_tile)
            in
            match victims with
            | [] -> ()
            | _ ->
              Obs.Metrics.incr m_ripups;
              let v, old_fu = List.nth victims (Plaid_util.Rng.int rng (List.length victims)) in
              let slot = Schedule.slot ~ii times.(v) in
              Mrrg.unplace_node mrrg ~node:v ~fu:old_fu ~slot;
              (match Greedy.compatible_fus mrrg g ~node:v ~slot with
              | [] -> Mrrg.place_node mrrg ~node:v ~fu:old_fu ~slot
              | cands ->
                let fu = List.nth cands (Plaid_util.Rng.int rng (List.length cands)) in
                if fu <> old_fu then touch v;
                Mrrg.place_node mrrg ~node:v ~fu ~slot;
                place.(v) <- fu)
        end
      end
    done;
    Explain.add_iterations !iter;
    if Explain.enabled () then
      (* end-of-negotiation congestion snapshot: the cells the router was
         still fighting over (empty on success, since overuse must be 0) *)
      Explain.congestion (Mrrg.overused_cells mrrg);
    match !result with
    | None -> None
    | Some m -> (
      match Mapping.validate m with
      | Ok () -> Some m
      | Error msg -> invalid_arg ("Pathfinder: produced invalid mapping: " ^ msg))
