module Obs = Plaid_obs
module Rng = Plaid_util.Rng

(* Draws only for an uphill move; both annealers' RNG streams depend on
   that short circuit. *)
let metropolis ~rng ~temp ~old_cost ~new_cost =
  new_cost <= old_cost || Rng.float rng 1.0 < exp ((old_cost -. new_cost) /. max 1e-6 temp)

let try_move table ~edges ~apply ~undo ~rng ~temp =
  let old_cost = Route_table.total_cost table in
  let saved = Route_table.snapshot_edges table edges in
  List.iter (Route_table.release_edge table) edges;
  let applied = apply () in
  List.iter (fun i -> ignore (Route_table.route_edge table i)) edges;
  let accept =
    applied && metropolis ~rng ~temp ~old_cost ~new_cost:(Route_table.total_cost table)
  in
  if not accept then begin
    List.iter (Route_table.release_edge table) edges;
    undo ();
    List.iter
      (fun (i, p, c) ->
        match p with Some path -> Route_table.restore_edge table i path c | None -> ())
      saved
  end;
  accept

type state = {
  arch : Plaid_arch.Arch.t;
  g : Plaid_ir.Dfg.t;
  ii : int;
  mrrg : Mrrg.t;
  times : int array;
  place : int array;
  table : Route_table.t;
}

let to_mapping st =
  { Mapping.arch = st.arch; dfg = st.g; ii = st.ii; times = Array.copy st.times;
    place = Array.copy st.place; routes = Route_table.routes st.table }

(* Swapping two nodes' FUs (times unchanged) escapes the local minima where
   a chain sits on the right tiles in the wrong order, which single-node
   moves cannot fix through the occupied intermediate states. *)
let swap st v w ~rng ~temp =
  let fu_v = st.place.(v) and fu_w = st.place.(w) in
  if
    v <> w && fu_v <> fu_w
    && Plaid_arch.Arch.fu_supports st.arch fu_w (Plaid_ir.Dfg.node st.g v).op
    && Plaid_arch.Arch.fu_supports st.arch fu_v (Plaid_ir.Dfg.node st.g w).op
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
      try_move st.table
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

let move st v ~earliest ~rng ~temp =
  let old_fu = st.place.(v) and old_t = st.times.(v) in
  let old_slot = Schedule.slot ~ii:st.ii old_t in
  let retime = Rng.int rng 2 = 0 in
  let new_fu, new_t =
    if retime then begin
      let lo, hi = Schedule.slack st.g ~times:st.times ~ii:st.ii ~node:v in
      let lo = if lo > old_t - 2 then lo else old_t - 2 in
      let lo = if lo > earliest then lo else earliest in
      let hi = if hi < old_t + 2 then hi else old_t + 2 in
      if hi <= lo then (old_fu, old_t) else (old_fu, lo + Rng.int rng (hi - lo + 1))
    end
    else begin
      (* temporarily free v's slot so compatible_fus can offer it back *)
      Mrrg.unplace_node st.mrrg ~node:v ~fu:old_fu ~slot:old_slot;
      let cands = Greedy.compatible_fus st.mrrg st.g ~node:v ~slot:old_slot in
      Mrrg.place_node st.mrrg ~node:v ~fu:old_fu ~slot:old_slot;
      match cands with
      | [] -> (old_fu, old_t)
      | l -> (List.nth l (Rng.int rng (List.length l)), old_t)
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
  && try_move st.table ~edges:(Route_table.incident st.table v)
       ~apply:(fun () ->
         put ~fu_from:old_fu ~slot_from:old_slot ~fu:new_fu ~slot:new_slot ~t:new_t;
         true)
       ~undo:(fun () ->
         put ~fu_from:new_fu ~slot_from:new_slot ~fu:old_fu ~slot:old_slot ~t:old_t)
       ~rng ~temp

let run table ~iterations ~t_start ~t_decay ~step =
  let temp = ref t_start in
  let iter = ref 0 in
  (* plateau abort: a hopeless II should fail fast so the driver can move
     to the next one *)
  let plateau = max 300 (iterations / 3) in
  let best = ref infinity and since_best = ref 0 in
  while Route_table.unrouted table > 0 && !iter < iterations && !since_best < plateau do
    incr iter;
    step ~temp:!temp;
    temp := !temp *. t_decay;
    let c = Route_table.total_cost table in
    if c < !best then begin
      best := c;
      since_best := 0
    end
    else incr since_best
  done;
  Explain.add_iterations !iter;
  if Route_table.unrouted table > 0 then
    Obs.Log.debug ~sub:"anneal" "%s ii=%d: %d edges unrouted after %d moves"
      (Route_table.dfg table).Plaid_ir.Dfg.name (Route_table.ii table)
      (Route_table.unrouted table) !iter;
  !temp

let first_success ~restarts ~rng attempt =
  let rec go r =
    if r >= restarts then None
    else
      match attempt (Rng.split rng) with
      | Some m -> (
        match Mapping.validate m with
        | Ok () -> Some m
        | Error msg -> invalid_arg ("Anneal_core: annealing produced an invalid mapping: " ^ msg))
      | None -> go (r + 1)
  in
  go 0
