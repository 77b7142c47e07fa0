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

let init_state arch g ~ii ~times ~rng =
  let mrrg = Mrrg.create arch ~ii in
  let times = Array.copy times in
  match Greedy.initial_place mrrg g ~times ~rng with
  | None -> None
  | Some place ->
    let table = Route_table.create mrrg g ~times ~place in
    Route_table.route_all table;
    Some { Anneal_core.arch; g; ii; mrrg; times; place; table }

let run_once arch g ~ii ~times ~params ~rng =
  Obs.Trace.with_span ~cat:"sa" "sa.run_once"
    ~args:[ ("kernel", g.Dfg.name); ("ii", string_of_int ii) ]
    ~result:(function Some _ -> [ ("mapped", "true") ] | None -> [ ("mapped", "false") ])
  @@ fun () ->
  match Explain.phase "place" (fun () -> init_state arch g ~ii ~times ~rng) with
  | None -> None
  | Some st ->
    Explain.phase "route" @@ fun () ->
    let n = Dfg.n_nodes g in
    let step ~temp =
      Obs.Metrics.incr m_moves;
      let accepted =
        match Plaid_util.Rng.int rng 4 with
        | 0 ->
          let v = Plaid_util.Rng.int rng n in
          Anneal_core.swap st v (Plaid_util.Rng.int rng n) ~rng ~temp
        | _ -> Anneal_core.move st (Plaid_util.Rng.int rng n) ~earliest:min_int ~rng ~temp
      in
      if accepted then Obs.Metrics.incr m_accepts
    in
    let temp =
      Anneal_core.run st.Anneal_core.table ~iterations:params.iterations ~t_start:params.t_start
        ~t_decay:params.t_decay ~step
    in
    Obs.Metrics.set g_final_temp temp;
    if Route_table.unrouted st.table = 0 then Some (Anneal_core.to_mapping st) else None

let map_at_ii arch g ~ii ~times ~params ~rng =
  Anneal_core.first_success ~restarts:params.restarts ~rng (fun rng ->
      let m = run_once arch g ~ii ~times ~params ~rng in
      if Option.is_none m then Obs.Metrics.incr m_restarts;
      m)
