open Plaid_ir

type outcome = {
  mapping : Mapping.t option;
  explored : int;
  exhausted : bool;
}


(* Completeness requires backtracking over *routing* choices, not just
   placements: committing each edge to the router's single cheapest path
   can block a later edge that some costlier path would have left open,
   making the search report "unplaceable" for schedules the heuristics
   map fine (the differential fuzzer found exactly that on a faulted
   mesh).  So the exact search enumerates every valid exact-latency path
   lazily, in the same (resource, elapsed) state space as {!Route.find}'s
   Hard mode. *)

(* All exact-latency paths for one edge, as a lazy sequence in a fixed
   deterministic order.  [tick] charges each state expansion against the
   shared search budget; once it reports exhaustion the sequence dries
   up.  Occupancy is consulted live ([Mrrg.can_use]), so the caller must
   not mutate the MRRG while holding an unforced tail — the search below
   only advances the sequence after releasing the previous candidate. *)
let enum_paths mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~min_lat ~tick :
    Route.path Seq.t =
  if length < 0 || length > Route.max_detour then Seq.empty
  else if length = 0 then
    (* Same-FU zero-elapsed edge: exactly one route, the empty path (the
       same length-0 contract as [Route.find]). *)
    if src_fu = dst_fu then Seq.return [] else Seq.empty
  else begin
    let arch = Mrrg.arch mrrg in
    let ii = Mrrg.ii mrrg in
    let exclusive = Mrrg.exclusive mrrg in
    let fu_ok = arch.Plaid_arch.Arch.allow_fu_routethrough in
    (* the same self-collision rule as the router: one (resource, slot)
       cell must not appear at two different elapsed times *)
    let conflict rev_path res' e' =
      List.exists
        (fun (r, e) -> r = res' && e <> e' && (exclusive || (e - e') mod ii = 0))
        rev_path
    in
    let rec go res elapsed rev_path () =
      if tick () then Seq.Nil
      else
        (List.to_seq arch.Plaid_arch.Arch.out_links.(res)
        |> Seq.concat_map (fun (dst, lat) ->
               let e' = elapsed + lat in
               if e' > length then Seq.empty
               else if dst = dst_fu && e' = length then
                 (* consumer FU itself is not occupied by the route *)
                 Seq.return (List.rev rev_path)
               else if e' + min_lat dst > length then Seq.empty
               else begin
                 let intermediate_fu =
                   match (Plaid_arch.Arch.resource arch dst).Plaid_arch.Arch.kind with
                   | Plaid_arch.Arch.Fu _ -> true
                   | _ -> false
                 in
                 if intermediate_fu && not fu_ok then Seq.empty
                 else begin
                   let slot = Schedule.slot ~ii (t_src + e') in
                   let signal = { Mrrg.s_node = src_node; s_elapsed = e' } in
                   if
                     Mrrg.can_use mrrg ~res:dst ~slot signal
                     && not (conflict rev_path dst e')
                   then go dst e' ((dst, e') :: rev_path)
                   else Seq.empty
                 end
               end))
          ()
    in
    go src_fu 0 []
  end

let find arch g ~ii ~times ~budget =
  let n = Dfg.n_nodes g in
  let order = Array.of_list (Dfg.topo_order g) in
  let mrrg = Mrrg.create arch ~ii in
  let place = Array.make n (-1) in
  let paths : (int * Route.path) list ref = ref [] in  (* (edge idx, path), undo stack *)
  let explored = ref 0 in
  let exhausted = ref false in
  let tick () =
    if not !exhausted then begin
      incr explored;
      if !explored > budget then exhausted := true
    end;
    !exhausted
  in
  let edges = g.Dfg.edges in
  (* Admissible prune for the enumeration: the fault-aware minimum link
     latency from each resource to the consumer FU, ignoring occupancy.  A
     state with [elapsed + min_lat > length] can never arrive on time; the
     table's 255 ("unreachable") exceeds every length up to
     {!Route.max_detour}, so it prunes too. *)
  let rt = Plaid_arch.Arch.route_tables arch in
  let min_lat_for dst_fu res =
    Char.code (Bytes.unsafe_get rt.Plaid_arch.Arch.rt_lat (rt.rt_row.(dst_fu) + res))
  in
  (* edges whose both endpoints are placed once [v] is placed *)
  let ready_edges v =
    List.filter_map
      (fun i ->
        let e = edges.(i) in
        if
          (not (Dfg.is_ordering e))
          && ((e.src = v && (place.(e.dst) >= 0 || e.dst = v))
             || (e.dst = v && place.(e.src) >= 0))
        then Some i
        else None)
      (List.init (Array.length edges) (fun i -> i))
  in
  let ordering_ok v =
    (* ordering edges have no route but still need causal lengths *)
    List.for_all
      (fun (e : Dfg.edge) ->
        (not (Dfg.is_ordering e))
        || e.src <> v
        || times.(e.dst) - times.(e.src) + (e.dist * ii) >= 1)
      (Dfg.succs g v)
  in
  (* Route [pending] edges in order, backtracking across the alternative
     paths of each, then resume placement at node-rank [k]. *)
  let rec route_then_place pending k =
    match pending with
    | [] -> search k
    | i :: rest ->
      let e = edges.(i) in
      let length = times.(e.dst) - times.(e.src) + (e.dist * ii) in
      let candidates =
        enum_paths mrrg ~src_fu:place.(e.src) ~src_node:e.src ~t_src:times.(e.src)
          ~dst_fu:place.(e.dst) ~length ~min_lat:(min_lat_for place.(e.dst)) ~tick
      in
      Seq.exists
        (fun path ->
          if !exhausted then false
          else begin
            Route.occupy_path mrrg ~src_node:e.src ~t_src:times.(e.src) path;
            paths := (i, path) :: !paths;
            if route_then_place rest k then true
            else begin
              (match !paths with
              | (j, p) :: tl when j = i ->
                Route.release_path mrrg ~src_node:e.src ~t_src:times.(e.src) p;
                paths := tl
              | _ -> assert false (* deeper frames undo their own routes *));
              false
            end
          end)
        candidates
  and search k =
    if !exhausted then false
    else if k = Array.length order then true
    else begin
      let v = order.(k) in
      let slot = Schedule.slot ~ii times.(v) in
      let op = (Dfg.node g v).op in
      let candidates =
        Array.to_list arch.Plaid_arch.Arch.fus
        |> List.filter (fun fu ->
               Plaid_arch.Arch.fu_supports arch fu op && Mrrg.fu_free mrrg ~fu ~slot)
      in
      List.exists
        (fun fu ->
          if tick () then false
          else begin
            Mrrg.place_node mrrg ~node:v ~fu ~slot;
            place.(v) <- fu;
            let ok = ordering_ok v && route_then_place (ready_edges v) (k + 1) in
            if not ok then begin
              Mrrg.unplace_node mrrg ~node:v ~fu ~slot;
              place.(v) <- -1
            end;
            ok
          end)
        candidates
    end
  in
  let found = search 0 in
  let mapping =
    if not found then None
    else begin
      let routes =
        List.rev_map
          (fun (i, path) -> { Mapping.re_edge = edges.(i); re_path = path })
          !paths
      in
      let m =
        { Mapping.arch; dfg = g; ii; times = Array.copy times; place = Array.copy place;
          routes }
      in
      match Mapping.validate m with
      | Ok () -> Some m
      | Error msg -> invalid_arg ("Exact: invalid mapping: " ^ msg)
    end
  in
  { mapping; explored = !explored; exhausted = !exhausted }

let min_ii arch g ~budget =
  let cap = Plaid_arch.Arch.capacity arch in
  let mii = Analysis.mii g cap in
  let top = arch.Plaid_arch.Arch.config.entries in
  let rec go ii =
    if ii > top then None
    else begin
      let attempt times =
        match times with
        | None -> None
        | Some times -> (find arch g ~ii ~times ~budget).mapping
      in
      match attempt (Schedule.compute ~lat:2 g ~ii ~cap) with
      | Some m -> Some (ii, m)
      | None -> (
        match attempt (Schedule.compute g ~ii ~cap) with
        | Some m -> Some (ii, m)
        | None -> go (ii + 1))
    end
  in
  go mii
