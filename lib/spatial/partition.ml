open Plaid_ir
module Int_set = Set.Make (Int)

type buffer = { buf_array : string; buf_init : int; buf_len : int }

type t = {
  segments : Dfg.t list;
  buffers : buffer list;
  added_loads : int;
  added_stores : int;
}

let memory_class op = Op.is_memory op || op = Op.Input

(* Tarjan SCCs over every edge (data and ordering, any distance): a
   loop-carried cycle must stay within one segment. *)
let sccs g =
  let n = Dfg.n_nodes g in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comp = Array.make n (-1) in
  let n_comp = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (e : Dfg.edge) ->
        let w = e.dst in
        if index.(w) < 0 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      (Dfg.succs g v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !n_comp;
          if w <> v then pop ()
      in
      pop ();
      incr n_comp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (comp, !n_comp)

let scc_ids g = fst (sccs g)

(* Pack SCCs into segments greedily along a topological order of the
   condensation, bounded by node and memory budgets. *)
let pack g ~budget_nodes ~budget_memory =
  let comp, n_comp = sccs g in
  (* members and per-SCC costs *)
  let members = Array.make n_comp [] in
  Array.iter (fun (nd : Dfg.node) -> members.(comp.(nd.id)) <- nd.id :: members.(comp.(nd.id))) g.Dfg.nodes;
  let cost c =
    let nodes = List.length members.(c) in
    let mem =
      List.length (List.filter (fun v -> memory_class (Dfg.node g v).op) members.(c))
    in
    (nodes, mem)
  in
  (* condensation topo order via repeated Kahn *)
  let indeg = Array.make n_comp 0 in
  Array.iter
    (fun (e : Dfg.edge) -> if comp.(e.src) <> comp.(e.dst) then indeg.(comp.(e.dst)) <- indeg.(comp.(e.dst)) + 1)
    g.Dfg.edges;
  (* Kahn's algorithm, always releasing the ready SCC whose earliest member
     comes first in program order: keeps each producer-consumer chain (e.g.
     one unrolled copy) contiguous so cuts cross few edges.  First members
     are distinct per SCC, so the ready set holds them and names its SCC
     by [comp]. *)
  let first_member = Array.map (fun ms -> List.fold_left min max_int ms) members in
  let ready = ref Int_set.empty in
  let release c = ready := Int_set.add first_member.(c) !ready in
  Array.iteri (fun c d -> if d = 0 then release c) indeg;
  let order = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match Int_set.min_elt_opt !ready with
    | None -> continue_ := false
    | Some first ->
      ready := Int_set.remove first !ready;
      let c = comp.(first) in
      order := c :: !order;
      List.iter
        (fun v ->
          List.iter
            (fun (e : Dfg.edge) ->
              if comp.(e.dst) <> c then begin
                indeg.(comp.(e.dst)) <- indeg.(comp.(e.dst)) - 1;
                if indeg.(comp.(e.dst)) = 0 then release comp.(e.dst)
              end)
            (Dfg.succs g v))
        members.(c)
  done;
  let order = List.rev !order in
  (* Greedy packing with real segment costs: besides its own nodes, a
     segment pays one fill load per distinct external value it consumes, one
     Input replica per external live-in, and one spill store per distinct
     value it exports.  Packing follows a topological order, so an edge
     leaving the candidate necessarily crosses into a later segment. *)
  let in_set = Array.make (Dfg.n_nodes g) false in
  let seg_cost candidate_members =
    List.iter (fun v -> in_set.(v) <- true) candidate_members;
    let base_nodes = List.length candidate_members in
    let base_mem =
      List.length (List.filter (fun v -> memory_class (Dfg.node g v).op) candidate_members)
    in
    let fills = Hashtbl.create 8 in
    let spill_stores = Hashtbl.create 8 in
    List.iter
      (fun v ->
        List.iter
          (fun (e : Dfg.edge) ->
            if (not (Dfg.is_ordering e)) && not in_set.(e.src) then
              Hashtbl.replace fills
                (if (Dfg.node g e.src).op = Op.Input then (e.src, -1, 0)
                 else (e.src, e.dist, e.init))
                ())
          (Dfg.preds g v);
        if (Dfg.node g v).op <> Op.Input then
          List.iter
            (fun (e : Dfg.edge) ->
              if (not (Dfg.is_ordering e)) && not in_set.(e.dst) then
                Hashtbl.replace spill_stores (v, e.dist, e.init) ())
            (Dfg.succs g v))
      candidate_members;
    List.iter (fun v -> in_set.(v) <- false) candidate_members;
    let extra = Hashtbl.length fills + Hashtbl.length spill_stores in
    (base_nodes + extra, base_mem + extra)
  in
  ignore cost;
  let segments = ref [] and current = ref [] in
  let feasible = ref true in
  List.iter
    (fun c ->
      let candidate = List.rev_append members.(c) !current in
      let nodes, mem = seg_cost candidate in
      if nodes <= budget_nodes && mem <= budget_memory then current := candidate
      else begin
        let own_nodes, own_mem = seg_cost members.(c) in
        if own_nodes > budget_nodes || own_mem > budget_memory then feasible := false
        else begin
          if !current <> [] then segments := List.rev !current :: !segments;
          current := List.rev members.(c)
        end
      end)
    order;
  if !current <> [] then segments := List.rev !current :: !segments;
  if !feasible then Some (List.rev !segments) else None

(* Materialize segment DFGs, spilling cut data edges through buffers. *)
let materialize g segs =
  let seg_of = Array.make (Dfg.n_nodes g) (-1) in
  List.iteri (fun si vs -> List.iter (fun v -> seg_of.(v) <- si) vs) segs;
  let buffers = ref [] in
  let added_loads = ref 0 and added_stores = ref 0 in
  let spill_name =
    let k = ref 0 in
    fun () -> incr k; Printf.sprintf "%%spill%d" !k
  in
  let seg_dfgs =
    List.mapi
      (fun si vs ->
        let b = Dfg.builder ~trip:g.Dfg.trip (Printf.sprintf "%s.seg%d" g.Dfg.name si) in
        let remap = Hashtbl.create 16 in
        List.iter
          (fun v ->
            let nd = Dfg.node g v in
            Hashtbl.replace remap v
              (Dfg.add_node b ~imms:nd.imms ?access:nd.access ~label:nd.label nd.op))
          vs;
        (b, remap))
      segs
  in
  let seg_arr = Array.of_list seg_dfgs in
  (* one buffer and store per cut producer (u, dist class); one load per
     (consumer segment, buffer) *)
  let store_of = Hashtbl.create 16 in   (* (src, dist) -> buffer name *)
  let load_of = Hashtbl.create 16 in    (* (seg, buffer) -> load node id *)
  Array.iter
    (fun (e : Dfg.edge) ->
      let ps = seg_of.(e.src) and cs = seg_of.(e.dst) in
      if ps = cs then begin
        (* internal edge: copy verbatim *)
        let b, remap = seg_arr.(ps) in
        Dfg.add_edge b ~dist:e.dist ~init:e.init ~src:(Hashtbl.find remap e.src)
          ~dst:(Hashtbl.find remap e.dst) ~operand:e.operand ()
      end
      else if Dfg.is_ordering e then ()
        (* sequential segment execution orders memory passes already *)
      else begin
        let src_node = Dfg.node g e.src in
        if src_node.op = Op.Input then begin
          (* replicate the live-in read instead of buffering it *)
          let b, remap = seg_arr.(cs) in
          let key = (cs, "input" ^ string_of_int e.src) in
          let dup =
            match Hashtbl.find_opt load_of key with
            | Some id -> id
            | None ->
              let id =
                Dfg.add_node b ?access:src_node.access ~label:(src_node.label ^ "'") Op.Input
              in
              Hashtbl.replace load_of key id;
              incr added_loads;
              id
          in
          Dfg.add_edge b ~src:dup ~dst:(Hashtbl.find remap e.dst) ~operand:e.operand ()
        end
        else begin
          let buf =
            match Hashtbl.find_opt store_of (e.src, e.dist, e.init) with
            | Some name -> name
            | None ->
              let name = spill_name () in
              Hashtbl.replace store_of (e.src, e.dist, e.init) name;
              buffers :=
                { buf_array = name; buf_init = e.init; buf_len = g.Dfg.trip + e.dist }
                :: !buffers;
              (* producer stores its value shifted by dist so the consumer
                 reads plain [i] *)
              let b, remap = seg_arr.(ps) in
              let st =
                Dfg.add_node b
                  ~access:{ Dfg.array = name; offset = e.dist; stride = 1 }
                  ~label:("spill_" ^ name) Op.Store
              in
              incr added_stores;
              Dfg.add_edge b ~src:(Hashtbl.find remap e.src) ~dst:st ~operand:0 ();
              name
          in
          let b, remap = seg_arr.(cs) in
          let ld =
            match Hashtbl.find_opt load_of (cs, buf) with
            | Some id -> id
            | None ->
              let id =
                Dfg.add_node b
                  ~access:{ Dfg.array = buf; offset = 0; stride = 1 }
                  ~label:("fill_" ^ buf) Op.Load
              in
              Hashtbl.replace load_of (cs, buf) id;
              incr added_loads;
              id
          in
          Dfg.add_edge b ~src:ld ~dst:(Hashtbl.find remap e.dst) ~operand:e.operand ()
        end
      end)
    g.Dfg.edges;
  let segments = List.map (fun (b, _) -> Dfg.finish b) seg_dfgs in
  (segments, List.rev !buffers, !added_loads, !added_stores)

let within_budget segs ~max_nodes ~max_memory =
  List.for_all
    (fun s -> Dfg.n_nodes s <= max_nodes && Analysis.n_memory_class s <= max_memory)
    segs

let partition g ~max_nodes ~max_memory =
  (* The packer accounts for fill loads and Input replicas itself; the
     reserve keeps room for spill *stores*, whose count is only known after
     materialization.  Try small reserves (fewest segments) first. *)
  let try_with (reserve_nodes, reserve_mem) =
    if max_nodes - reserve_nodes < 1 || max_memory - reserve_mem < 1 then None
    else
      match
        pack g ~budget_nodes:(max_nodes - reserve_nodes)
          ~budget_memory:(max_memory - reserve_mem)
      with
      | None -> None
      | Some segs ->
        let segments, buffers, added_loads, added_stores = materialize g segs in
        if within_budget segments ~max_nodes ~max_memory then
          Some { segments; buffers; added_loads; added_stores }
        else None
  in
  let reserves = [ (0, 0); (1, 1); (2, 1); (2, 2); (4, 2); (6, 3); (8, 3) ] in
  let best =
    List.fold_left
      (fun acc r ->
        match (acc, try_with r) with
        | None, p -> p
        | Some _, None -> acc
        | Some a, Some b ->
          let key p = (List.length p.segments, p.added_loads + p.added_stores) in
          if key b < key a then Some b else acc)
      None reserves
  in
  match best with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "Partition: cannot fit %s" g.Dfg.name)
