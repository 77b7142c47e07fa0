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
