type access = { array : string; offset : int; stride : int }

type node = {
  id : int;
  op : Op.t;
  imms : (int * int) list;
  access : access option;
  label : string;
}

type edge = { src : int; dst : int; operand : int; dist : int; init : int }

type t = {
  name : string;
  trip : int;
  nodes : node array;
  edges : edge array;
  succs : edge list array;
  preds : edge list array;
}

type builder = {
  bname : string;
  btrip : int;
  mutable bnodes : node list;  (* reversed *)
  mutable bedges : edge list;
  mutable next_id : int;
}

let builder ?(trip = 1) name = { bname = name; btrip = trip; bnodes = []; bedges = []; next_id = 0 }

let add_node b ?(imms = []) ?access ?label op =
  let id = b.next_id in
  b.next_id <- id + 1;
  let label = match label with Some l -> l | None -> Printf.sprintf "%s_%d" (Op.to_string op) id in
  b.bnodes <- { id; op; imms; access; label } :: b.bnodes;
  id

let add_edge b ?(dist = 0) ?(init = 0) ~src ~dst ~operand () =
  b.bedges <- { src; dst; operand; dist; init } :: b.bedges

let validate name nodes edges preds =
  let n = Array.length nodes in
  Array.iter
    (fun (e : edge) ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        invalid_arg (Printf.sprintf "Dfg %s: edge endpoint out of range" name);
      if e.dist < 0 then invalid_arg (Printf.sprintf "Dfg %s: negative edge distance" name))
    edges;
  Array.iter
    (fun nd ->
      let ar = Op.arity nd.op in
      (* Every operand slot is fed by exactly one edge or one immediate. *)
      let covered = Array.make ar 0 in
      List.iter
        (fun (i, _) ->
          if i < 0 || i >= ar then
            invalid_arg (Printf.sprintf "Dfg %s: node %s imm index %d out of range" name nd.label i);
          covered.(i) <- covered.(i) + 1)
        nd.imms;
      List.iter
        (fun (e : edge) ->
          if e.operand >= 0 then begin
            if e.operand >= ar then
              invalid_arg
                (Printf.sprintf "Dfg %s: node %s operand %d out of range (arity %d)" name nd.label
                   e.operand ar);
            covered.(e.operand) <- covered.(e.operand) + 1
          end)
        preds.(nd.id);
      Array.iteri
        (fun i c ->
          if c <> 1 then
            invalid_arg
              (Printf.sprintf "Dfg %s: node %s operand %d covered %d times" name nd.label i c))
        covered;
      match (Op.is_memory nd.op || nd.op = Op.Input, nd.access) with
      | true, None -> invalid_arg (Printf.sprintf "Dfg %s: node %s needs an access" name nd.label)
      | false, Some _ ->
        invalid_arg (Printf.sprintf "Dfg %s: compute node %s has an access" name nd.label)
      | _ -> ())
    nodes

(* Kahn's algorithm on the distance-0 subgraph; raises if cyclic. *)
let topo_of name nodes preds succs =
  let n = Array.length nodes in
  let indeg = Array.make n 0 in
  Array.iteri
    (fun i es -> indeg.(i) <- List.length (List.filter (fun (e : edge) -> e.dist = 0) es))
    preds;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    order := u :: !order;
    List.iter
      (fun (e : edge) ->
        if e.dist = 0 then begin
          indeg.(e.dst) <- indeg.(e.dst) - 1;
          if indeg.(e.dst) = 0 then Queue.add e.dst queue
        end)
      succs.(u)
  done;
  if !seen <> n then invalid_arg (Printf.sprintf "Dfg %s: cycle through distance-0 edges" name);
  List.rev !order

let finish b =
  let nodes = Array.of_list (List.rev b.bnodes) in
  let edges = Array.of_list (List.rev b.bedges) in
  let n = Array.length nodes in
  let succs = Array.make n [] and preds = Array.make n [] in
  Array.iter
    (fun (e : edge) ->
      if e.src >= 0 && e.src < n then succs.(e.src) <- e :: succs.(e.src);
      if e.dst >= 0 && e.dst < n then preds.(e.dst) <- e :: preds.(e.dst))
    edges;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  validate b.bname nodes edges preds;
  ignore (topo_of b.bname nodes preds succs);
  { name = b.bname; trip = b.btrip; nodes; edges; succs; preds }

let n_nodes g = Array.length g.nodes

let n_compute g =
  Array.fold_left (fun acc nd -> if Op.is_compute nd.op then acc + 1 else acc) 0 g.nodes

let n_memory g =
  Array.fold_left (fun acc nd -> if Op.is_memory nd.op then acc + 1 else acc) 0 g.nodes

let is_ordering (e : edge) = e.operand < 0

let data_edges g =
  Array.fold_left (fun acc e -> if is_ordering e then acc else acc + 1) 0 g.edges

let node g i = g.nodes.(i)

let preds g i = g.preds.(i)

let succs g i = g.succs.(i)

let topo_order g = topo_of g.name g.nodes g.preds g.succs

let max_dist g = Array.fold_left (fun acc (e : edge) -> max acc e.dist) 0 g.edges

(* [1 + max 0 (max offset (offset + stride * (trip - 1)))], saturated at
   [max_int] instead of wrapping, so a huge stride cannot pass for a small
   array. *)
let extent ~offset ~stride ~trip =
  let k = max 0 (trip - 1) in
  let hi =
    if stride <= 0 || k = 0 then offset
    else if stride > max_int / k then max_int
    else
      let span = stride * k in
      if offset > max_int - span then max_int else offset + span
  in
  if hi = max_int then max_int else 1 + max 0 hi

let arrays g =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      match nd.access with
      | None -> ()
      | Some a ->
        let extent = extent ~offset:a.offset ~stride:a.stride ~trip:g.trip in
        let prev = try Hashtbl.find tbl a.array with Not_found -> 0 in
        Hashtbl.replace tbl a.array (max prev extent))
    g.nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_stats fmt g =
  Format.fprintf fmt "%s: %d nodes (%d compute, %d memory), %d edges, trip %d" g.name (n_nodes g)
    (n_compute g) (n_memory g) (Array.length g.edges) g.trip
