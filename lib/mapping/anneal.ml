open Plaid_ir
module Obs = Plaid_obs

let m_moves = Obs.Metrics.counter "sa/moves"
let m_accepts = Obs.Metrics.counter "sa/accepts"
let m_restarts = Obs.Metrics.counter "sa/restarts"
let g_final_temp = Obs.Metrics.gauge "sa/final_temp"

type params = {
  iterations : int;
  t_start : float;
  t_decay : float;
  restarts : int;
}

let default = { iterations = 12000; t_start = 10.0; t_decay = 0.9995; restarts = 4 }

let quick = { iterations = 600; t_start = 4.0; t_decay = 0.995; restarts = 2 }

type state = {
  arch : Plaid_arch.Arch.t;
  g : Dfg.t;
  ii : int;
  mrrg : Mrrg.t;
  times : int array;
  place : int array;
  table : Route_table.t;
}

let init_state arch g ~ii ~times ~rng =
  let mrrg = Mrrg.create arch ~ii in
  let times = Array.copy times in
  match Greedy.initial_place mrrg g ~times ~rng with
  | None -> None
  | Some place ->
    let table = Route_table.create mrrg g ~times ~place in
    Route_table.route_all table;
    Some { arch; g; ii; mrrg; times; place; table }

let to_mapping st =
  { Mapping.arch = st.arch; dfg = st.g; ii = st.ii; times = Array.copy st.times;
    place = Array.copy st.place; routes = Route_table.routes st.table }

(* Swap the FUs of two nodes (times unchanged): escapes the local minima
   where a chain sits on the right tiles in the wrong order, which
   single-node moves cannot fix through the occupied intermediate states. *)
let attempt_swap st ~rng ~temp =
  let n = Dfg.n_nodes st.g in
  let v = Plaid_util.Rng.int rng n and w = Plaid_util.Rng.int rng n in
  let fu_v = st.place.(v) and fu_w = st.place.(w) in
  if
    v <> w && fu_v <> fu_w
    && Plaid_arch.Arch.fu_supports st.arch fu_w (Dfg.node st.g v).op
    && Plaid_arch.Arch.fu_supports st.arch fu_v (Dfg.node st.g w).op
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

(* Re-place or retime one random node. *)
let attempt_move st ~rng ~temp =
  let n = Dfg.n_nodes st.g in
  let v = Plaid_util.Rng.int rng n in
  let old_fu = st.place.(v) and old_t = st.times.(v) in
  let old_slot = Schedule.slot ~ii:st.ii old_t in
  let retime = Plaid_util.Rng.int rng 2 = 0 in
  let new_fu, new_t =
    if retime then begin
      let lo, hi = Schedule.slack st.g ~times:st.times ~ii:st.ii ~node:v in
      let lo = max lo (old_t - 2) and hi = min hi (old_t + 2) in
      if hi <= lo then (old_fu, old_t)
      else (old_fu, lo + Plaid_util.Rng.int rng (hi - lo + 1))
    end
    else begin
      (* temporarily free v's slot so compatible_fus can offer it back *)
      Mrrg.unplace_node st.mrrg ~node:v ~fu:old_fu ~slot:old_slot;
      let cands = Greedy.compatible_fus st.mrrg st.g ~node:v ~slot:old_slot in
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
  && (new_fu = old_fu || Plaid_arch.Arch.fu_supports st.arch new_fu (Dfg.node st.g v).op)
  && ((new_fu = old_fu && new_slot = old_slot) || Mrrg.fu_free st.mrrg ~fu:new_fu ~slot:new_slot)
  && Anneal_core.try_move st.table ~edges:(Route_table.incident st.table v)
       ~apply:(fun () ->
         put ~fu_from:old_fu ~slot_from:old_slot ~fu:new_fu ~slot:new_slot ~t:new_t;
         true)
       ~undo:(fun () ->
         put ~fu_from:new_fu ~slot_from:new_slot ~fu:old_fu ~slot:old_slot ~t:old_t)
       ~rng ~temp

let run_once arch g ~ii ~times ~params ~rng =
  Obs.Trace.with_span ~cat:"sa" "sa.run_once"
    ~args:[ ("kernel", g.Dfg.name); ("ii", string_of_int ii) ]
    ~result:(function Some _ -> [ ("mapped", "true") ] | None -> [ ("mapped", "false") ])
  @@ fun () ->
  match Explain.phase "place" (fun () -> init_state arch g ~ii ~times ~rng) with
  | None -> None
  | Some st ->
    Explain.phase "route" @@ fun () ->
    let step ~temp =
      Obs.Metrics.incr m_moves;
      let accepted =
        if Plaid_util.Rng.int rng 4 = 0 then attempt_swap st ~rng ~temp
        else attempt_move st ~rng ~temp
      in
      if accepted then Obs.Metrics.incr m_accepts
    in
    let temp =
      Anneal_core.run st.table ~iterations:params.iterations ~t_start:params.t_start
        ~t_decay:params.t_decay ~step
    in
    Obs.Metrics.set g_final_temp temp;
    if Route_table.unrouted st.table = 0 then Some (to_mapping st) else None

let map_at_ii arch g ~ii ~times ~params ~rng =
  Anneal_core.first_success ~restarts:params.restarts ~rng (fun rng ->
      let m = run_once arch g ~ii ~times ~params ~rng in
      if Option.is_none m then Obs.Metrics.incr m_restarts;
      m)
