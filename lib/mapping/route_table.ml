open Plaid_ir

let unrouted_penalty = 1000

type t = {
  mrrg : Mrrg.t;
  g : Dfg.t;
  times : int array;
  place : int array;
  paths : Route.path option array;
  costs : float array;
  incident_tbl : int list array;
  (* the unrouted edge ids, [unrouted_ids.(0 .. n_unrouted-1)], in no
     particular order; [unrouted_pos.(i)] is edge [i]'s index there, -1
     when routed.  Swap-remove keeps both updates O(1). *)
  unrouted_ids : int array;
  unrouted_pos : int array;
  mutable n_unrouted : int;
  mutable wire_cost : float;
}

let mark_unrouted t i =
  t.unrouted_ids.(t.n_unrouted) <- i;
  t.unrouted_pos.(i) <- t.n_unrouted;
  t.n_unrouted <- t.n_unrouted + 1

let mark_routed t i =
  let k = t.unrouted_pos.(i) in
  let last = t.unrouted_ids.(t.n_unrouted - 1) in
  t.unrouted_ids.(k) <- last;
  t.unrouted_pos.(last) <- k;
  t.unrouted_pos.(i) <- -1;
  t.n_unrouted <- t.n_unrouted - 1

let create mrrg g ~times ~place =
  let ne = Array.length g.Dfg.edges in
  let incident_tbl = Array.make (Dfg.n_nodes g) [] in
  Array.iteri
    (fun i (e : Dfg.edge) ->
      incident_tbl.(e.src) <- i :: incident_tbl.(e.src);
      if e.dst <> e.src then incident_tbl.(e.dst) <- i :: incident_tbl.(e.dst))
    g.Dfg.edges;
  { mrrg; g; times; place; paths = Array.make ne None; costs = Array.make ne 0.0;
    incident_tbl; unrouted_ids = Array.init ne Fun.id; unrouted_pos = Array.init ne Fun.id;
    n_unrouted = ne; wire_cost = 0.0 }

let release_edge t i =
  match t.paths.(i) with
  | None -> ()
  | Some path ->
    let e = t.g.Dfg.edges.(i) in
    Route.release_path t.mrrg ~src_node:e.src ~t_src:t.times.(e.src) path;
    t.paths.(i) <- None;
    t.wire_cost <- t.wire_cost -. t.costs.(i);
    t.costs.(i) <- 0.0;
    mark_unrouted t i

let route_edge t i =
  assert (match t.paths.(i) with None -> true | Some _ -> false);
  let e = t.g.Dfg.edges.(i) in
  let ii = Mrrg.ii t.mrrg in
  let length = t.times.(e.dst) - t.times.(e.src) + (e.dist * ii) in
  if Dfg.is_ordering e then begin
    (* No data to route: the constraint is purely temporal (memory access
       serialization through the SPM). *)
    if length >= 1 then begin
      t.paths.(i) <- Some [];
      mark_routed t i;
      true
    end
    else false
  end
  else
  match
    Route.find t.mrrg ~src_fu:t.place.(e.src) ~src_node:e.src ~t_src:t.times.(e.src)
      ~dst_fu:t.place.(e.dst) ~length ~mode:Route.Hard
  with
  | None -> false
  | Some (path, cost) ->
    Route.occupy_path t.mrrg ~src_node:e.src ~t_src:t.times.(e.src) path;
    t.paths.(i) <- Some path;
    t.costs.(i) <- cost;
    t.wire_cost <- t.wire_cost +. cost;
    mark_routed t i;
    true

let route_all t =
  Array.iteri (fun i p -> match p with None -> ignore (route_edge t i) | Some _ -> ()) t.paths

let restore_edge t i path cost =
  assert (match t.paths.(i) with None -> true | Some _ -> false);
  let e = t.g.Dfg.edges.(i) in
  Route.occupy_path t.mrrg ~src_node:e.src ~t_src:t.times.(e.src) path;
  t.paths.(i) <- Some path;
  t.costs.(i) <- cost;
  t.wire_cost <- t.wire_cost +. cost;
  mark_routed t i

let snapshot_edges t idxs = List.map (fun i -> (i, t.paths.(i), t.costs.(i))) idxs

let incident t v = t.incident_tbl.(v)

let unrouted t = t.n_unrouted

(* Unrouted edges are shaped, not flat: a non-causal edge (length < 1) pays
   proportionally to its violation so annealing moves feel a gradient toward
   a legal schedule, and an overly long edge is nudged shorter.  Every term
   is an integer, so summing only the unrouted set, in any order, gives the
   same float as a scan of every edge. *)
let total_cost t =
  let ii = Mrrg.ii t.mrrg in
  let penalty = ref 0 in
  for k = 0 to t.n_unrouted - 1 do
    let e = t.g.Dfg.edges.(t.unrouted_ids.(k)) in
    let len = t.times.(e.dst) - t.times.(e.src) + (e.dist * ii) in
    let shape = if len < 1 then 40 * (1 - len) else 2 * len in
    penalty := !penalty + unrouted_penalty + shape
  done;
  float_of_int !penalty +. t.wire_cost

let path t i = t.paths.(i)

let dfg t = t.g

let ii t = Mrrg.ii t.mrrg

let routes t =
  Array.to_list (Array.mapi (fun i p -> (i, p)) t.paths)
  |> List.filter_map (fun (i, p) ->
         if Dfg.is_ordering t.g.Dfg.edges.(i) then None
         else
           Option.map (fun path -> { Mapping.re_edge = t.g.Dfg.edges.(i); re_path = path }) p)
