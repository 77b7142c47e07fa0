open Plaid_ir
module Obs = Plaid_obs

type algo = Sa of Anneal.params | Pf of Pathfinder.params

type outcome = { mapping : Mapping.t option; mii : int; attempts : int }

let algo_name = function Sa _ -> "sa" | Pf _ -> "pf"

let m_ii_attempts = Obs.Metrics.counter "driver/ii_attempts"
let m_wasted = Obs.Metrics.counter "driver/wasted_ii_attempts"
let m_mapped = Obs.Metrics.counter "driver/mapped"

let mapped_arg = function
  | Some _ -> [ ("mapped", "true") ]
  | None -> [ ("mapped", "false") ]

(* The one II search over [mii, limit].  [limit] is [max_ii] for a full
   search; [best_of] passes one below the best II an earlier entry found,
   so a search that cannot win stops early.  [attempt] is a pure function
   of its II, so speculative parallel attempts at several IIs produce
   exactly the values the sequential loop would. *)
let search ?pool ?limit ~name ~seed ~mii ~max_ii attempt =
  Obs.Trace.with_span ~cat:"driver" "driver.map"
    ~args:[ ("algo", name); ("seed", string_of_int seed) ]
    ~result:(fun o ->
      ("attempts", string_of_int o.attempts)
      ::
      (match o.mapping with
      | Some m -> [ ("ii", string_of_int m.Mapping.ii) ]
      | None -> [ ("mapped", "false") ]))
  @@ fun () ->
  let limit = match limit with Some l -> min l max_ii | None -> max_ii in
  let attempt ii =
    Obs.Trace.with_span ~cat:"driver" "driver.ii_attempt"
      ~args:[ ("algo", name); ("ii", string_of_int ii) ]
      ~result:mapped_arg
    @@ fun () ->
    Explain.with_attempt ~algo:name ~ii ~mapped:Option.is_some @@ fun () ->
    Obs.Metrics.incr m_ii_attempts;
    let result = attempt ii in
    if Option.is_some result then Obs.Metrics.incr m_mapped;
    result
  in
  let give_up tried = { mapping = None; mii; attempts = tried } in
  let width = match pool with Some p -> Plaid_util.Pool.size p | None -> 1 in
  if width <= 1 then begin
    let rec search ii tried =
      if ii > limit then give_up tried
      else
        match attempt ii with
        | Some mapping -> { mapping = Some mapping; mii; attempts = tried + 1 }
        | None -> search (ii + 1) (tried + 1)
    in
    search mii 0
  end
  else begin
    let pool = Option.get pool in
    (* Race a window of consecutive IIs; accept the lowest II that maps.
       The attempt count matches the sequential loop: every II up to and
       including the winner counts, speculative overshoot does not. *)
    let rec search lo tried =
      if lo > limit then give_up tried
      else begin
        let hi = min limit (lo + width - 1) in
        let iis = List.init (hi - lo + 1) (fun k -> lo + k) in
        let results = Plaid_util.Pool.run pool (List.map (fun ii () -> attempt ii) iis) in
        let rec first iis results =
          match (iis, results) with
          | ii :: _, Some m :: _ -> Some (ii, m)
          | _ :: iis, None :: results -> first iis results
          | _ -> None
        in
        match first iis results with
        | Some (ii, mapping) ->
          (* Speculative attempts above the winning II were wasted work the
             sequential loop would never have run. *)
          Obs.Metrics.add m_wasted (hi - ii);
          if Obs.Trace.enabled () then
            Obs.Trace.instant ~cat:"driver" "driver.search_round"
              ~args:
                [
                  ("window", Printf.sprintf "%d..%d" lo hi);
                  ("winner", string_of_int ii);
                  ("wasted", string_of_int (hi - ii));
                ];
          { mapping = Some mapping; mii; attempts = tried + (ii - lo) + 1 }
        | None ->
          if Obs.Trace.enabled () then
            Obs.Trace.instant ~cat:"driver" "driver.search_round"
              ~args:[ ("window", Printf.sprintf "%d..%d" lo hi); ("winner", "none") ];
          search (hi + 1) (tried + List.length iis)
      end
    in
    search mii 0
  end

let threaded_stream ~seed ~mii ~draws ii =
  let rng = Plaid_util.Rng.create seed in
  for i = mii to ii - 1 do
    for _ = 1 to draws i do ignore (Plaid_util.Rng.split rng) done
  done;
  rng

(* A PF/SA attempt at one II: its RNG stream is derived by index from the
   seed ([Rng.derive]) rather than threaded through the IIs before it. *)
let attempt_at ~algo ~arch ~dfg ~cap ~base ii =
  let rng = Plaid_util.Rng.derive base ii in
  (* PathFinder cannot retime, so prefer a schedule with a two-cycle
     routing budget per edge; fall back to the tight schedule when
     recurrences make the padded one infeasible. *)
  let schedules =
    Explain.phase "schedule" @@ fun () ->
    match algo with
    | Sa _ -> [ Schedule.compute dfg ~ii ~cap ]
    | Pf _ -> [ Schedule.compute ~lat:2 dfg ~ii ~cap; Schedule.compute dfg ~ii ~cap ]
  in
  let run times =
    match algo with
    | Sa params -> Anneal.map_at_ii arch dfg ~ii ~times ~params ~rng:(Plaid_util.Rng.split rng)
    | Pf params ->
      Pathfinder.map_at_ii arch dfg ~ii ~times ~params ~rng:(Plaid_util.Rng.split rng)
  in
  List.find_map (fun sched -> Option.bind sched run) schedules

(* Only a full search warns: failing under a lower [limit] is not a
   failure to map. *)
let ii_search ?pool ?limit ~algo ~arch ~dfg ~seed () =
  let cap = Plaid_arch.Arch.capacity arch in
  let mii = Analysis.mii dfg cap in
  let max_ii = arch.Plaid_arch.Arch.config.entries in
  let base = Plaid_util.Rng.create seed in
  let o =
    search ?pool ?limit ~name:(algo_name algo) ~seed ~mii ~max_ii
      (attempt_at ~algo ~arch ~dfg ~cap ~base)
  in
  if Option.is_none o.mapping && Option.is_none limit then
    Obs.Log.warn ~sub:"driver" "%s: no mapping up to II %d (%s, %d attempts)" dfg.Dfg.name
      max_ii (algo_name algo) o.attempts;
  o

let map ?pool ~algo ~arch ~dfg ~seed () = ii_search ?pool ~algo ~arch ~dfg ~seed ()

(* ------------------------------------------------------ fault repair *)

type repair_outcome = {
  repaired : Mapping.t option;
  incremental : bool;
  displaced : int;
  rerouted : int;
  rattempts : int;
}

let m_repairs = Obs.Metrics.counter "driver/repairs"
let m_repair_incremental = Obs.Metrics.counter "driver/repair_incremental"
let m_repair_full = Obs.Metrics.counter "driver/repair_full_remap"


let edge_key (e : Dfg.edge) = (e.src, e.dst, e.operand, e.dist)

(* Does this route survive the fault set of [arch]?  Every hop cell must be
   healthy and every crossed link must still exist (broken links vanish
   from [out_links]). *)
let route_survives arch (m : Mapping.t) (r : Mapping.route_entry) =
  let e = r.re_edge in
  let ii = m.Mapping.ii in
  let t_src = m.times.(e.src) in
  let link_exists src dst lat =
    List.exists (fun (d, l) -> d = dst && l = lat) arch.Plaid_arch.Arch.out_links.(src)
  in
  let need = m.times.(e.dst) - t_src + (e.dist * ii) in
  let rec links prev prev_e = function
    | [] -> link_exists prev m.place.(e.dst) (need - prev_e)
    | (res, el) :: rest -> link_exists prev res (el - prev_e) && links res el rest
  in
  List.for_all
    (fun (res, elapsed) ->
      not (Plaid_arch.Arch.cell_faulty arch ~res ~slot:(Schedule.slot ~ii (t_src + elapsed))))
    r.re_path
  && links m.place.(e.src) 0 r.re_path

(* Incremental fault repair: keep everything the fault spared, re-place only
   the displaced nodes and re-route only the broken or displaced edges, at
   the same II and schedule.  Falls back to a full remap (fresh II search on
   the degraded fabric) when the local fix cannot close. *)
let repair ?pool ~algo ~arch ~mapping:(m : Mapping.t) ~seed () =
  Obs.Trace.with_span ~cat:"driver" "driver.repair"
    ~args:[ ("algo", algo_name algo); ("kernel", m.dfg.Dfg.name) ]
    ~result:(fun r ->
      [ ("incremental", string_of_bool r.incremental);
        ("repaired", string_of_bool (Option.is_some r.repaired)) ])
  @@ fun () ->
  Obs.Metrics.incr m_repairs;
  let g = m.dfg in
  let ii = m.ii in
  let n = Dfg.n_nodes g in
  let displaced =
    Array.init n (fun v ->
        Plaid_arch.Arch.cell_faulty arch ~res:m.place.(v) ~slot:(Schedule.slot ~ii m.times.(v)))
  in
  let n_displaced = Array.fold_left (fun a b -> if b then a + 1 else a) 0 displaced in
  let full_remap () =
    Obs.Metrics.incr m_repair_full;
    let o = map ?pool ~algo ~arch ~dfg:g ~seed () in
    { repaired = o.mapping; incremental = false; displaced = n_displaced; rerouted = 0;
      rattempts = o.attempts }
  in
  let incremental () =
    let place = Array.copy m.place in
    let mrrg = Mrrg.create arch ~ii in
    (* surviving routes, keyed by edge; broken or displaced ones re-route *)
    let kept : (int * int * int * int, Route.path) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (r : Mapping.route_entry) ->
        let e = r.re_edge in
        if
          (not displaced.(e.src)) && (not displaced.(e.dst))
          && route_survives arch m r
        then Hashtbl.replace kept (edge_key e) r.re_path)
      m.routes;
    let placed = Array.make n false in
    (try
       for v = 0 to n - 1 do
         if not displaced.(v) then begin
           Mrrg.place_node mrrg ~node:v ~fu:place.(v) ~slot:(Schedule.slot ~ii m.times.(v));
           placed.(v) <- true
         end
       done
     with Invalid_argument _ -> raise Exit);
    Hashtbl.iter
      (fun (src, _, _, _) path ->
        Route.occupy_path mrrg ~src_node:src ~t_src:m.times.(src) path)
      kept;
    let route_edge (e : Dfg.edge) =
      let length = m.times.(e.dst) - m.times.(e.src) + (e.dist * ii) in
      match
        Route.find mrrg ~src_fu:place.(e.src) ~src_node:e.src ~t_src:m.times.(e.src)
          ~dst_fu:place.(e.dst) ~length ~mode:Route.Hard
      with
      | None -> None
      | Some (path, _) ->
        Route.occupy_path mrrg ~src_node:e.src ~t_src:m.times.(e.src) path;
        Hashtbl.replace kept (edge_key e) path;
        Some path
    in
    let release_edge (e : Dfg.edge) path =
      Route.release_path mrrg ~src_node:e.src ~t_src:m.times.(e.src) path;
      Hashtbl.remove kept (edge_key e)
    in
    (* Re-place each displaced node in id order.  Candidates are ranked by
       total Manhattan distance to already-placed neighbours (ties on the
       lower resource id), and a candidate is accepted only if every
       incident edge whose other endpoint is placed routes exactly. *)
    let rerouted = ref 0 in
    for v = 0 to n - 1 do
      if displaced.(v) then begin
        let slot = Schedule.slot ~ii m.times.(v) in
        let incident =
          List.filter (fun (e : Dfg.edge) -> not (Dfg.is_ordering e)) (Dfg.preds g v)
          @ List.filter (fun (e : Dfg.edge) -> not (Dfg.is_ordering e)) (Dfg.succs g v)
        in
        let score fu =
          let tile = (Plaid_arch.Arch.resource arch fu).tile in
          List.fold_left
            (fun acc (e : Dfg.edge) ->
              let other = if e.dst = v then e.src else e.dst in
              if other <> v && placed.(other) then
                acc + Greedy.manhattan tile (Plaid_arch.Arch.resource arch place.(other)).tile
              else acc)
            0 incident
        in
        let cands =
          Greedy.compatible_fus mrrg g ~node:v ~slot
          |> List.map (fun fu -> (score fu, fu))
          |> List.sort compare |> List.map snd
        in
        let try_candidate fu =
          Mrrg.place_node mrrg ~node:v ~fu ~slot;
          place.(v) <- fu;
          placed.(v) <- true;
          let ready =
            List.filter
              (fun (e : Dfg.edge) -> placed.(e.src) && placed.(e.dst))
              incident
          in
          let rec route_all done_ = function
            | [] -> true
            | e :: rest -> (
              match route_edge e with
              | Some path -> route_all ((e, path) :: done_) rest
              | None ->
                List.iter (fun (e, p) -> release_edge e p) done_;
                false)
          in
          if route_all [] ready then begin
            rerouted := !rerouted + List.length ready;
            true
          end
          else begin
            Mrrg.unplace_node mrrg ~node:v ~fu ~slot;
            placed.(v) <- false;
            false
          end
        in
        if not (List.exists try_candidate cands) then raise Exit
      end
    done;
    (* broken edges between two surviving nodes *)
    Array.iter
      (fun (e : Dfg.edge) ->
        if (not (Dfg.is_ordering e)) && not (Hashtbl.mem kept (edge_key e)) then begin
          match route_edge e with
          | Some _ -> incr rerouted
          | None -> raise Exit
        end)
      g.Dfg.edges;
    let routes =
      Array.to_list g.Dfg.edges
      |> List.filter_map (fun (e : Dfg.edge) ->
             if Dfg.is_ordering e then None
             else
               Option.map
                 (fun path -> { Mapping.re_edge = e; re_path = path })
                 (Hashtbl.find_opt kept (edge_key e)))
    in
    let repaired =
      { Mapping.arch; dfg = g; ii; times = Array.copy m.times; place; routes }
    in
    match Mapping.validate repaired with
    | Ok () ->
      Obs.Metrics.incr m_repair_incremental;
      { repaired = Some repaired; incremental = true; displaced = n_displaced;
        rerouted = !rerouted; rattempts = 0 }
    | Error msg ->
      Obs.Log.warn ~sub:"driver" "incremental repair produced invalid mapping (%s); remapping"
        msg;
      raise Exit
  in
  try incremental () with Exit -> full_remap ()

let best_of ?pool ?(restarts = 1) ~algos ~arch ~dfg ~seed () =
  if algos = [] then invalid_arg "Driver.best_of: no algorithms";
  if restarts < 1 then invalid_arg "Driver.best_of: restarts must be >= 1";
  Obs.Trace.with_span ~cat:"driver" "driver.best_of"
    ~args:
      [
        ("algos", String.concat "," (List.map algo_name algos));
        ("restarts", string_of_int restarts);
      ]
    ~result:(fun o ->
      match o.mapping with
      | Some m -> [ ("ii", string_of_int m.Mapping.ii) ]
      | None -> [ ("mapped", "false") ])
  @@ fun () ->
  (* Fixed algo-major, restart-minor order.  [acc] is what an
     earliest-wins-ties reduction over every entry searched in full holds at
     this point: the latest outcome until one maps, then the best.  A mapped
     [acc] only loses to a strictly lower II, so the next entry searches
     below it; an attempt is a pure function of its II, so that bounded
     search finds exactly the II the full one would whenever that II can
     win. *)
  let entries =
    List.concat
      (List.mapi
         (fun i algo -> List.init restarts (fun r -> (algo, seed + (i * 7919) + (r * 104729))))
         algos)
  in
  let run ?limit (algo, seed) = ii_search ?pool ?limit ~algo ~arch ~dfg ~seed () in
  let rec walk acc = function
    | [] -> acc
    | entry :: rest -> (
      match acc.mapping with
      | None -> walk (run entry) rest
      | Some m when m.Mapping.ii <= acc.mii -> acc
      | Some m ->
        let o = run ~limit:(m.Mapping.ii - 1) entry in
        walk (if Option.is_some o.mapping then o else acc) rest)
  in
  match entries with
  | [] -> assert false
  | first :: rest -> walk (run first) rest
