open Plaid_ir
open Plaid_mapping
module Obs = Plaid_obs

type stats = { cycles : int; fu_firings : int; wire_hops : int; stall_cycles : int }

let m_firings = Obs.Metrics.counter "sim/firings"
let m_wire_hops = Obs.Metrics.counter "sim/wire_hops"
let m_cycles = Obs.Metrics.counter "sim/cycles"
let m_stalls = Obs.Metrics.counter "sim/stall_cycles"

let address (a : Dfg.access) iter = a.offset + (a.stride * iter)

(* Faulty silicon corrupts, it does not zero: adding an odd constant on the
   16-bit datapath is bijective and never equal to the healthy value.  The
   odd constant matters — a value can cross several fault sites (a faulted
   producer whose route also holds in the broken cell), and an involution
   like XOR would cancel on the second crossing and let the garbled value
   masquerade as healthy.  k applications shift by k*0x2b5d, which is never
   0 mod 2^16 for any 0 < k < 2^16. *)
let corrupt v = Op.wrap16 (v + 0x2b5d)


(* Which data edges cross broken silicon: a hop cell that is faulted at its
   modulo slot, or a link (including the implicit first and final hops) that
   is broken.  Keyed by (src, dst, operand, dist) since edges are plain
   records. *)
let corrupted_edges (m : Mapping.t) =
  let arch = m.Mapping.arch in
  let ii = m.ii in
  let tbl : (int * int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Mapping.route_entry) ->
      let e = r.re_edge in
      let t_src = m.times.(e.src) in
      let hop_bad =
        List.exists
          (fun (res, elapsed) ->
            Plaid_arch.Arch.cell_faulty arch ~res ~slot:(Schedule.slot ~ii (t_src + elapsed)))
          r.re_path
      in
      let chain = (m.place.(e.src) :: List.map fst r.re_path) @ [ m.place.(e.dst) ] in
      let rec link_bad = function
        | a :: (b :: _ as rest) ->
          Plaid_arch.Arch.link_broken arch ~src:a ~dst:b || link_bad rest
        | _ -> false
      in
      if hop_bad || link_bad chain then
        Hashtbl.replace tbl (e.src, e.dst, e.operand, e.dist) ())
    m.routes;
  tbl

let floor_div a b = if a >= 0 then a / b else -((b - 1 - a) / b)

(* Replay arrays are sized by the schedule's spread, which a valid mapping
   keeps to a few hundred cycles; a hand-edited mapping loaded without
   validation is refused past this bound rather than allocated. *)
let max_spread = 1 lsl 20

let max_work = 1 lsl 20

(* [trip > max_work / n] is [trip * n > max_work] without the overflow *)
let check_work (g : Dfg.t) =
  let n = Dfg.n_nodes g in
  let words =
    List.fold_left (fun acc (_, w) -> if acc > max_int - w then max_int else acc + w) 0
      (Dfg.arrays g)
  in
  if n > 0 && g.trip > max_work / n then
    Error
      (Printf.sprintf "%s: trip %d x %d nodes exceeds the simulation bound of %d node firings"
         g.name g.trip n max_work)
  else if words > max_work then
    Error
      (Printf.sprintf "%s: arrays of %d words exceed the simulation bound of %d words" g.name
         words max_work)
  else Ok ()

(* Every route step, flattened in (route, path) order: route [r] carries
   node [src.(r)]'s values and owns steps [first.(r)] to [first.(r + 1) - 1].
   A step carries iteration [iter]'s value on [res] at absolute cycle
   [base + iter * II]. *)
type steps = { src : int array; first : int array; res : int array; base : int array }

let flatten (m : Mapping.t) =
  let routes = Array.of_list m.routes in
  let first = Array.make (Array.length routes + 1) 0 in
  Array.iteri
    (fun i (r : Mapping.route_entry) -> first.(i + 1) <- first.(i) + List.length r.re_path)
    routes;
  let n = first.(Array.length routes) in
  let res = Array.make n 0 and base = Array.make n 0 in
  Array.iteri
    (fun i (r : Mapping.route_entry) ->
      List.iteri
        (fun k (rid, elapsed) ->
          res.(first.(i) + k) <- rid;
          base.(first.(i) + k) <- m.times.(r.re_edge.src) + elapsed)
        r.re_path)
    routes;
  { src = Array.map (fun (r : Mapping.route_entry) -> r.re_edge.src) routes; first; res; base }

(* Fire every (node, iter) in (cycle, topo) order, filling [values]
   ([iter * n + node]) and calling [mark] on each firing cycle.  The
   schedule already satisfies all dependency constraints, so replaying by
   absolute fire time (topological rank among simultaneous nodes) is legal.
   Cycle [t + iter * II] is wave [t / II + iter] at slot [t mod II], so each
   wave fires its live nodes in (slot, rank) order. *)
let fire_all (m : Mapping.t) spm ~mark =
  let g = m.dfg in
  let trip = g.Dfg.trip and n = Dfg.n_nodes g and ii = m.ii in
  let arch = m.arch in
  let faulty = Plaid_arch.Arch.faults arch <> [] in
  let bad_edges = if faulty then corrupted_edges m else Hashtbl.create 0 in
  let fu_bad =
    Array.init n (fun v ->
        faulty
        && Plaid_arch.Arch.cell_faulty arch ~res:m.place.(v) ~slot:(Schedule.slot ~ii m.times.(v)))
  in
  (* Per node: the operand array with immediates filled in, and the data
     edges that overwrite it on every firing. *)
  let template =
    Array.init n (fun v ->
        let nd = Dfg.node g v in
        let args = Array.make (Op.arity nd.op) 0 in
        List.iter (fun (i, c) -> args.(i) <- c) nd.imms;
        args)
  in
  let inputs =
    Array.init n (fun v ->
        Array.of_list (List.filter (fun e -> not (Dfg.is_ordering e)) (Dfg.preds g v)))
  in
  let inputs_bad =
    Array.map
      (Array.map (fun (e : Dfg.edge) ->
           faulty && Hashtbl.mem bad_edges (e.src, e.dst, e.operand, e.dist)))
      inputs
  in
  let values = Array.make (trip * n) 0 in
  let fire v iter =
    let nd = Dfg.node g v in
    let args = Array.copy template.(v) in
    let ins = inputs.(v) and bad = inputs_bad.(v) in
    for k = 0 to Array.length ins - 1 do
      let (e : Dfg.edge) = ins.(k) in
      let src_iter = iter - e.dist in
      let x = if src_iter < 0 then e.init else values.((src_iter * n) + e.src) in
      (* A value crossing faulted wires arrives corrupted. *)
      args.(e.operand) <- (if bad.(k) then corrupt x else x)
    done;
    let result =
      match nd.op with
      | Op.Load | Op.Input ->
        let a = Option.get nd.access in
        let r = Spm.read spm a.array (address a iter) in
        if faulty && Plaid_arch.Arch.spm_faulty arch a.array then corrupt r else r
      | Op.Store ->
        let a = Option.get nd.access in
        (* A faulted ALSU garbles the word on its way to the bank, as
           does a faulty bank itself — one fault site, one corruption. *)
        let w =
          if fu_bad.(v) || (faulty && Plaid_arch.Arch.spm_faulty arch a.array) then
            corrupt args.(0)
          else args.(0)
        in
        Spm.write spm a.array (address a iter) w;
        args.(0)
      | ( Op.Add | Op.Sub | Op.Mul | Op.Shl | Op.Shr | Op.Asr | Op.And
        | Op.Or | Op.Xor | Op.Not | Op.Min | Op.Max | Op.Eq | Op.Lt
        | Op.Select ) as op ->
        Op.eval op args
    in
    (* A faulted FU garbles whatever it produces. *)
    values.((iter * n) + v) <- (if fu_bad.(v) then corrupt result else result);
    mark (m.times.(v) + (iter * ii))
  in
  if n > 0 then begin
    let topo = Array.of_list (Dfg.topo_order g) in
    let wave = Array.map (fun t -> floor_div t ii) m.times in
    let order =
      Array.init n (fun rank ->
          let v = topo.(rank) in
          ((m.times.(v) - (wave.(v) * ii)) * n) + rank)
    in
    Array.sort compare order;
    let order = Array.map (fun key -> topo.(key mod n)) order in
    for w = Array.fold_left min max_int wave to Array.fold_left max min_int wave + trip - 1 do
      Array.iter
        (fun v ->
          let iter = w - wave.(v) in
          if iter >= 0 && iter < trip then fire v iter)
        order
    done
  end;
  values

exception Wire_conflict of string

(* Replay every routed value hop by hop and check wire exclusivity: at most
   one value per (resource, cycle).  Each wire cell (resource, slot) a route
   touches owns a slice of [occupant] (node * trip + iter, -1 while free) and
   [carried], one entry per wave in which it can be busy.  Returns the
   number of distinct (resource, cycle) occupancies, calling [mark] on each
   one's cycle. *)
let replay_wires (m : Mapping.t) st values ~mark =
  let trip = m.dfg.Dfg.trip and n = Dfg.n_nodes m.dfg and ii = m.ii in
  let n_steps = Array.length st.res in
  let cell_of = Array.make (Plaid_arch.Arch.n_resources m.arch * ii) (-1) in
  let step_cell = Array.make n_steps 0 and step_wave = Array.make n_steps 0 in
  let cells = ref 0 in
  let c_lo = Array.make n_steps max_int and c_hi = Array.make n_steps min_int in
  for k = 0 to n_steps - 1 do
    let w = floor_div st.base.(k) ii in
    let key = (st.res.(k) * ii) + st.base.(k) - (w * ii) in
    if cell_of.(key) < 0 then begin
      cell_of.(key) <- !cells;
      incr cells
    end;
    let c = cell_of.(key) in
    step_cell.(k) <- c;
    step_wave.(k) <- w;
    c_lo.(c) <- min c_lo.(c) w;
    c_hi.(c) <- max c_hi.(c) w
  done;
  let c_start = Array.make (!cells + 1) 0 in
  for c = 0 to !cells - 1 do
    c_start.(c + 1) <- c_start.(c) + c_hi.(c) - c_lo.(c) + trip
  done;
  let len = c_start.(!cells) in
  if len - (!cells * trip) > max_spread then
    Error
      (Printf.sprintf "simulation fault: wire cells span %d extra waves" (len - (!cells * trip)))
  else begin
    let occupant = Array.make len (-1) and carried = Array.make len 0 in
    let hops = ref 0 in
    try
      Array.iteri
        (fun r src ->
          for iter = 0 to trip - 1 do
            let v = values.((iter * n) + src) in
            let me = (src * trip) + iter in
            for k = st.first.(r) to st.first.(r + 1) - 1 do
              let c = step_cell.(k) in
              let i = c_start.(c) + step_wave.(k) - c_lo.(c) + iter in
              let o = occupant.(i) in
              if o < 0 then begin
                occupant.(i) <- me;
                carried.(i) <- v;
                incr hops;
                mark (st.base.(k) + (iter * ii))
              end
              else if o <> me && carried.(i) <> v then
                raise
                  (Wire_conflict
                     (Printf.sprintf
                        "wire conflict: resource %d cycle %d carries node %d/iter %d and node %d/iter %d"
                        st.res.(k) (st.base.(k) + (iter * ii)) (o / trip) (o mod trip) src iter))
            done
          done)
        st.src;
      Ok !hops
    with Wire_conflict msg -> Error msg
  end

let run_exn (m : Mapping.t) spm =
  let trip = m.dfg.Dfg.trip in
  let st = flatten m in
  let t0 = if Array.length m.times = 0 then 0 else m.times.(0) in
  let lo = Array.fold_left min (Array.fold_left min t0 m.times) st.base in
  let hi = Array.fold_left max (Array.fold_left max t0 m.times) st.base in
  let n_res = Plaid_arch.Arch.n_resources m.arch in
  if m.ii < 1 then Error (Printf.sprintf "simulation fault: II %d" m.ii)
  else if hi - lo > max_spread then
    Error (Printf.sprintf "simulation fault: schedule spans %d cycles" (hi - lo))
  else
    match Array.find_opt (fun r -> r < 0 || r >= n_res) st.res with
    | Some r -> Error (Printf.sprintf "simulation fault: route through unknown resource %d" r)
    | None -> (
      (* A cycle of [0, total) is busy when something fires or a wire
         carries a value; the mask covers only the cycles the replay can
         reach. *)
      let total = Mapping.perf_cycles m in
      let mask_lo = max 0 lo in
      let mask_len = max 0 (min total (hi + ((trip - 1) * m.ii) + 1) - mask_lo) in
      let active = Bytes.make mask_len '\000' in
      let mark cycle =
        let i = cycle - mask_lo in
        if i >= 0 && i < mask_len then Bytes.unsafe_set active i '\001'
      in
      let values = fire_all m spm ~mark in
      match replay_wires m st values ~mark with
      | Error _ as e -> e
      | Ok wire_hops ->
        (* A cycle stalls when nothing fires and no wire carries a value —
           the fill/drain bubbles of the modulo schedule. *)
        let busy = ref 0 in
        Bytes.iter (fun b -> if b <> '\000' then incr busy) active;
        let stats =
          { cycles = total; fu_firings = trip * Dfg.n_nodes m.dfg; wire_hops;
            stall_cycles = total - !busy }
        in
        Obs.Metrics.add m_firings stats.fu_firings;
        Obs.Metrics.add m_wire_hops stats.wire_hops;
        Obs.Metrics.add m_cycles stats.cycles;
        Obs.Metrics.add m_stalls stats.stall_cycles;
        Ok stats)

let run m spm =
  Obs.Trace.with_span ~cat:"sim" "sim.run"
    ~args:[ ("kernel", m.Mapping.dfg.Dfg.name); ("ii", string_of_int m.Mapping.ii) ]
    ~result:(function
      | Ok (s : stats) -> [ ("cycles", string_of_int s.cycles) ]
      | Error _ -> [ ("error", "true") ])
  @@ fun () ->
  try run_exn m spm with Invalid_argument msg -> Error ("simulation fault: " ^ msg)

let verify m spm =
  Obs.Trace.with_span ~cat:"sim" "sim.verify"
    ~args:[ ("kernel", m.Mapping.dfg.Dfg.name) ]
    ~result:(function Ok _ -> [ ("ok", "true") ] | Error _ -> [ ("ok", "false") ])
  @@ fun () ->
  let mapped = Spm.copy spm in
  let golden = Spm.copy spm in
  match run m mapped with
  | Error _ as e -> e
  | Ok stats ->
    Reference.run m.dfg golden;
    let dm = Spm.dump mapped and dg = Spm.dump golden in
    if dm = dg then Ok stats
    else begin
      let diff =
        List.concat_map
          (fun ((name, a), (name', b)) ->
            if name <> name' then [ Printf.sprintf "array set mismatch: %s vs %s" name name' ]
            else
              List.filteri (fun i _ -> a.(i) <> b.(i)) (Array.to_list (Array.mapi (fun i _ -> i) a))
              |> List.map (fun i ->
                     Printf.sprintf "%s[%d]: mapped %d, reference %d" name i a.(i) b.(i)))
          (List.combine dm dg)
      in
      Error
        (Printf.sprintf "memory mismatch (%d locations): %s" (List.length diff)
           (String.concat "; " (List.filteri (fun i _ -> i < 5) diff)))
    end
