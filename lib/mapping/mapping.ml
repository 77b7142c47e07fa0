open Plaid_ir

type route_entry = { re_edge : Dfg.edge; re_path : Route.path }

type t = {
  arch : Plaid_arch.Arch.t;
  dfg : Dfg.t;
  ii : int;
  times : int array;
  place : int array;
  routes : route_entry list;
}

let edge_length m (e : Dfg.edge) = m.times.(e.dst) - m.times.(e.src) + (e.dist * m.ii)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let check_placement m =
  let n = Dfg.n_nodes m.dfg in
  if Array.length m.place <> n || Array.length m.times <> n then err "placement arrays mismatch"
  else begin
    let rec go i =
      if i = n then Ok ()
      else
        let fu = m.place.(i) in
        let nd = Dfg.node m.dfg i in
        if fu < 0 || fu >= Plaid_arch.Arch.n_resources m.arch then
          err "node %s: fu out of range" nd.label
        else if Plaid_arch.Arch.res_faulty m.arch fu then
          err "node %s: placed on faulted resource %s" nd.label
            (Plaid_arch.Arch.resource m.arch fu).rname
        else if not (Plaid_arch.Arch.fu_supports m.arch fu nd.op) then
          err "node %s: fu %s does not support %s" nd.label
            (Plaid_arch.Arch.resource m.arch fu).rname (Op.to_string nd.op)
        else go (i + 1)
    in
    go 0
  end

(* Data edges may be zero-length when producer and consumer share the FU
   (the value is read the cycle it is produced — representable after
   retiming); ordering edges model SPM serialization and always need at
   least one cycle. *)
let check_schedule m =
  let bad =
    Array.to_list m.dfg.Dfg.edges
    |> List.find_opt (fun (e : Dfg.edge) ->
           let len = edge_length m e in
           len < 1
           && not
                (len = 0 && (not (Dfg.is_ordering e)) && m.place.(e.src) = m.place.(e.dst)))
  in
  match bad with
  | None -> Ok ()
  | Some e ->
    err "edge %d->%d: non-causal latency %d"
      e.src e.dst (edge_length m e)

(* Verify one route step by step: every hop must be a real architecture link
   whose latency matches the elapsed delta, starting at the producer FU and
   ending with a latency-0 (combinational operand read) entry into the
   consumer FU at exactly the required elapsed time. *)
let check_route m (r : route_entry) =
  let e = r.re_edge in
  let need = edge_length m e in
  let arch = m.arch in
  let link_exists src dst lat =
    List.exists (fun (d, l) -> d = dst && l = lat) arch.Plaid_arch.Arch.out_links.(src)
  in
  let rec walk prev prev_elapsed = function
    | [] ->
      let lat = need - prev_elapsed in
      if not (link_exists prev m.place.(e.dst) lat) then
        err "edge %d->%d: final hop %s -> consumer missing (lat %d)" e.src e.dst
          (Plaid_arch.Arch.resource arch prev).rname lat
      else Ok ()
    | (res, elapsed) :: rest ->
      let lat = elapsed - prev_elapsed in
      if lat < 0 || lat > 1 then err "edge %d->%d: elapsed jump %d" e.src e.dst lat
      else if not (link_exists prev res lat) then
        err "edge %d->%d: missing link %s -> %s (lat %d)" e.src e.dst
          (Plaid_arch.Arch.resource arch prev).rname (Plaid_arch.Arch.resource arch res).rname lat
      else walk res elapsed rest
  in
  if need < 0 then err "edge %d->%d: need %d < 0" e.src e.dst need
  else if need = 0 then
    (* Zero-length: no hop at all — legal only as the empty path on a
       shared FU (matches [Route.find]'s length-0 contract). *)
    if r.re_path = [] && m.place.(e.src) = m.place.(e.dst) then Ok ()
    else err "edge %d->%d: zero-length route must be empty on a shared FU" e.src e.dst
  else walk m.place.(e.src) 0 r.re_path

(* Rebuild full occupancy, enforcing exclusivity/sharing rules. *)
let rebuild m =
  let mrrg = Mrrg.create m.arch ~ii:m.ii in
  let n = Dfg.n_nodes m.dfg in
  let rec place i =
    if i = n then Ok ()
    else begin
      let fu = m.place.(i) and slot = Schedule.slot ~ii:m.ii m.times.(i) in
      if not (Mrrg.fu_free mrrg ~fu ~slot) then
        err "fu %s slot %d double-booked" (Plaid_arch.Arch.resource m.arch fu).rname slot
      else begin
        Mrrg.place_node mrrg ~node:i ~fu ~slot;
        place (i + 1)
      end
    end
  in
  let* () = place 0 in
  let rec routes = function
    | [] -> Ok mrrg
    | r :: rest ->
      let e = r.re_edge in
      let t_src = m.times.(e.src) in
      let rec occupy = function
        | [] -> Ok ()
        | (res, elapsed) :: more ->
          let slot = ((t_src + elapsed) mod m.ii + m.ii) mod m.ii in
          let signal = { Mrrg.s_node = e.src; s_elapsed = elapsed } in
          if not (Mrrg.can_use mrrg ~res ~slot signal) then
            err "edge %d->%d: resource %s slot %d conflict" e.src e.dst
              (Plaid_arch.Arch.resource m.arch res).rname slot
          else begin
            Mrrg.occupy mrrg ~res ~slot signal;
            occupy more
          end
      in
      let* () = occupy r.re_path in
      routes rest
  in
  routes m.routes

(* A mapping made before (or without knowledge of) a fault may claim broken
   silicon; report that in fault terms rather than as an occupancy puzzle.
   Broken links are caught by [check_route] (they vanish from [out_links]). *)
let check_faults m =
  if Plaid_arch.Arch.faults m.arch = [] then Ok ()
  else begin
    let n = Dfg.n_nodes m.dfg in
    let rec nodes i =
      if i = n then Ok ()
      else if Plaid_arch.Arch.cell_faulty m.arch ~res:m.place.(i) ~slot:(Schedule.slot ~ii:m.ii m.times.(i))
      then
        err "node %s: placed on faulted resource %s" (Dfg.node m.dfg i).label
          (Plaid_arch.Arch.resource m.arch m.place.(i)).rname
      else nodes (i + 1)
    in
    let* () = nodes 0 in
    let rec routes = function
      | [] -> Ok ()
      | r :: rest ->
        let t_src = m.times.(r.re_edge.src) in
        let bad =
          List.find_opt
            (fun (res, elapsed) ->
              Plaid_arch.Arch.cell_faulty m.arch ~res ~slot:(Schedule.slot ~ii:m.ii (t_src + elapsed)))
            r.re_path
        in
        (match bad with
        | Some (res, _) ->
          err "edge %d->%d: route crosses faulted resource %s" r.re_edge.src r.re_edge.dst
            (Plaid_arch.Arch.resource m.arch res).rname
        | None -> routes rest)
    in
    routes m.routes
  end

let check_all_edges_routed m =
  let needed = Dfg.data_edges m.dfg in
  let have = List.length m.routes in
  if have <> needed then err "routed %d of %d data edges" have needed else Ok ()

let validate m =
  let* () = check_placement m in
  let* () = check_schedule m in
  let* () = check_faults m in
  let* () = check_all_edges_routed m in
  let rec all_routes = function
    | [] -> Ok ()
    | r :: rest ->
      let* () = check_route m r in
      all_routes rest
  in
  let* () = all_routes m.routes in
  let* _mrrg = rebuild m in
  Ok ()

let makespan m = Array.fold_left max 0 m.times + 1

let perf_cycles ?(outer = 1) m = (m.ii * ((outer * m.dfg.Dfg.trip) - 1)) + makespan m

let wire_occupancy m =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let t_src = m.times.(r.re_edge.src) in
      List.iter
        (fun (res, elapsed) ->
          let slot = ((t_src + elapsed) mod m.ii + m.ii) mod m.ii in
          Hashtbl.replace seen (res, slot, r.re_edge.src, elapsed) ())
        r.re_path)
    m.routes;
  Hashtbl.length seen

let utilization m =
  let mrrg =
    match rebuild m with
    | Ok mrrg -> mrrg
    | Error msg -> invalid_arg ("Mapping.utilization: invalid mapping: " ^ msg)
  in
  let used = Hashtbl.create 8 and avail = Hashtbl.create 8 in
  let bump tbl k v = Hashtbl.replace tbl k (v + try Hashtbl.find tbl k with Not_found -> 0) in
  Array.iter
    (fun (r : Plaid_arch.Arch.resource) ->
      for slot = 0 to Mrrg.slots mrrg - 1 do
        bump avail r.area_class 1;
        if Mrrg.presence mrrg ~res:r.id ~slot > 0 then bump used r.area_class 1
      done)
    m.arch.Plaid_arch.Arch.resources;
  Hashtbl.fold
    (fun cls total acc ->
      let u = try Hashtbl.find used cls with Not_found -> 0 in
      (cls, float_of_int u /. float_of_int total) :: acc)
    avail []
  |> List.sort compare

let reload m =
  match rebuild m with
  | Ok mrrg -> mrrg
  | Error msg -> invalid_arg ("Mapping.reload: invalid mapping: " ^ msg)

let pp fmt m =
  Format.fprintf fmt "@[<v>%s on %s: II=%d, makespan=%d, cycles=%d@]" m.dfg.Dfg.name
    m.arch.Plaid_arch.Arch.name m.ii (makespan m) (perf_cycles m)
