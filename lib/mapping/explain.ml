module Obs = Plaid_obs

(* Mapper explainability: a strictly out-of-band recorder of what the II
   search did — per-phase wall time, iteration counts, and end-of-attempt
   congestion — plus report writers that turn one mapping run into a
   diagnostic artifact.  Recording consumes no RNG and changes no control
   flow, so mapping results are bit-identical with it on or off. *)

type phase = { ph_name : string; ph_ms : float }

type attempt = {
  at_seq : int;
  at_algo : string;
  at_ii : int;
  mutable at_mapped : bool;
  mutable at_ms : float;
  mutable at_iterations : int;
  mutable at_phases : phase list;  (* reverse recording order *)
  mutable at_congestion : (int * int * int) list;  (* res, slot, presence *)
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let lock = Mutex.create ()
let completed : attempt list ref = ref []
let seq = Atomic.make 0

let current_key : attempt option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let reset () =
  Mutex.lock lock;
  completed := [];
  Mutex.unlock lock;
  Atomic.set seq 0

let with_attempt ~algo ~ii ~mapped f =
  if not (Atomic.get on) then f ()
  else begin
    let cur = Domain.DLS.get current_key in
    let saved = !cur in
    let at =
      { at_seq = Atomic.fetch_and_add seq 1; at_algo = algo; at_ii = ii;
        at_mapped = false; at_ms = 0.0; at_iterations = 0; at_phases = [];
        at_congestion = [] }
    in
    cur := Some at;
    let t0 = Obs.Trace.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        at.at_ms <- Obs.Trace.Clock.seconds_since t0 *. 1000.0;
        at.at_phases <- List.rev at.at_phases;
        Mutex.lock lock;
        completed := at :: !completed;
        Mutex.unlock lock;
        cur := saved)
      (fun () ->
        let r = f () in
        at.at_mapped <- mapped r;
        r)
  end

let phase name f =
  if not (Atomic.get on) then f ()
  else
    match !(Domain.DLS.get current_key) with
    | None -> f ()
    | Some at ->
      let t0 = Obs.Trace.Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          at.at_phases <-
            { ph_name = name; ph_ms = Obs.Trace.Clock.seconds_since t0 *. 1000.0 }
            :: at.at_phases)
        f

let add_iterations n =
  if Atomic.get on then
    match !(Domain.DLS.get current_key) with
    | None -> ()
    | Some at -> at.at_iterations <- at.at_iterations + n

let congestion cells =
  if Atomic.get on then
    match !(Domain.DLS.get current_key) with
    | None -> ()
    | Some at ->
      (* keep the worst presence seen per cell across restarts *)
      let merged =
        List.fold_left
          (fun acc (res, slot, p) ->
            match List.assoc_opt (res, slot) acc with
            | Some p0 when p0 >= p -> acc
            | _ -> ((res, slot), p) :: List.remove_assoc (res, slot) acc)
          (List.map (fun (r, s, p) -> ((r, s), p)) at.at_congestion)
          cells
      in
      at.at_congestion <-
        List.map (fun ((r, s), p) -> (r, s, p)) merged
        |> List.sort compare

let attempts () =
  Mutex.lock lock;
  let l = !completed in
  Mutex.unlock lock;
  List.sort
    (fun a b -> compare (a.at_ii, a.at_algo, a.at_seq) (b.at_ii, b.at_algo, b.at_seq))
    l

(* ------------------------------------------------------------- reports *)

let grid_dims arch =
  let rm, cm =
    Array.fold_left
      (fun (rm, cm) (r : Plaid_arch.Arch.resource) ->
        let row, col = r.tile in
        (max rm row, max cm col))
      (0, 0) arch.Plaid_arch.Arch.resources
  in
  (rm + 1, cm + 1)

(* PE-occupancy heatmap: occupied (resource, slot) cells per tile — node
   placements plus every route hop, the same cells Mapping.utilization
   counts, localized on the fabric grid. *)
let occupancy_grid (m : Mapping.t) =
  let arch = m.Mapping.arch in
  let rows, cols = grid_dims arch in
  let grid = Array.make_matrix rows cols 0 in
  let bump res =
    let row, col = (Plaid_arch.Arch.resource arch res).tile in
    grid.(row).(col) <- grid.(row).(col) + 1
  in
  Array.iter bump m.Mapping.place;
  List.iter
    (fun (r : Mapping.route_entry) -> List.iter (fun (res, _) -> bump res) r.re_path)
    m.Mapping.routes;
  grid

(* Channel-overuse heatmap: worst capacity violation (presence - 1) per
   tile, aggregated over every recorded attempt — where negotiation fought. *)
let overuse_grid arch atts =
  let rows, cols = grid_dims arch in
  let grid = Array.make_matrix rows cols 0 in
  List.iter
    (fun at ->
      List.iter
        (fun (res, _, p) ->
          if res < Array.length arch.Plaid_arch.Arch.resources then begin
            let row, col = (Plaid_arch.Arch.resource arch res).tile in
            grid.(row).(col) <- max grid.(row).(col) (p - 1)
          end)
        at.at_congestion)
    atts;
  grid

let phase_totals atts =
  List.fold_left
    (fun acc at ->
      List.fold_left
        (fun acc ph ->
          match List.assoc_opt ph.ph_name acc with
          | Some ms -> (ph.ph_name, ms +. ph.ph_ms) :: List.remove_assoc ph.ph_name acc
          | None -> acc @ [ (ph.ph_name, ph.ph_ms) ])
        acc at.at_phases)
    [] atts

type outcome = Mapped of Mapping.t | Segments of int | Failed

let json ~outcome ~kernel ~seed ~arch () : Obs.Json.t =
  let atts = attempts () in
  let rows, cols = grid_dims arch in
  let grid_json g =
    Obs.Json.Obj
      [
        ("rows", Obs.Json.Num (float_of_int (Array.length g)));
        ("cols", Obs.Json.Num (float_of_int (if Array.length g = 0 then 0 else Array.length g.(0))));
        ( "cells",
          Obs.Json.Arr
            (Array.to_list g
            |> List.map (fun row ->
                   Obs.Json.Arr
                     (Array.to_list row
                     |> List.map (fun v -> Obs.Json.Num (float_of_int v))))) );
      ]
  in
  let attempt_json at =
    Obs.Json.Obj
      [
        ("algo", Obs.Json.Str at.at_algo);
        ("ii", Obs.Json.Num (float_of_int at.at_ii));
        ("mapped", Obs.Json.Bool at.at_mapped);
        ("ms", Obs.Json.Num at.at_ms);
        ("iterations", Obs.Json.Num (float_of_int at.at_iterations));
        ( "phases",
          Obs.Json.Arr
            (List.map
               (fun ph ->
                 Obs.Json.Obj
                   [ ("name", Obs.Json.Str ph.ph_name); ("ms", Obs.Json.Num ph.ph_ms) ])
               at.at_phases) );
        ( "overused_cells",
          Obs.Json.Arr
            (List.map
               (fun (res, slot, p) ->
                 Obs.Json.Obj
                   [
                     ("res", Obs.Json.Num (float_of_int res));
                     ("slot", Obs.Json.Num (float_of_int slot));
                     ("presence", Obs.Json.Num (float_of_int p));
                   ])
               at.at_congestion) );
      ]
  in
  let base =
    [
      ("kernel", Obs.Json.Str kernel);
      ("seed", Obs.Json.Num (float_of_int seed));
      ("fabric", Obs.Json.Obj
         [ ("rows", Obs.Json.Num (float_of_int rows));
           ("cols", Obs.Json.Num (float_of_int cols)) ]);
      ("mapped", Obs.Json.Bool (outcome <> Failed));
      ("attempts", Obs.Json.Arr (List.map attempt_json atts));
      ( "phase_totals_ms",
        Obs.Json.Obj (List.map (fun (n, ms) -> (n, Obs.Json.Num ms)) (phase_totals atts))
      );
      ("overuse", overuse_grid arch atts |> grid_json);
    ]
  in
  let mapped =
    match outcome with
    | Failed -> []
    | Segments n -> [ ("segments", Obs.Json.Num (float_of_int n)) ]
    | Mapped m ->
      [
        ("ii", Obs.Json.Num (float_of_int m.Mapping.ii));
        ("occupancy", occupancy_grid m |> grid_json);
        ( "utilization",
          Obs.Json.Obj
            (List.map (fun (k, v) -> (k, Obs.Json.Num v)) (Mapping.utilization m)) );
      ]
  in
  Obs.Json.Obj (base @ mapped)

let render_grid buf title grid =
  Printf.bprintf buf "%s\n" title;
  let width =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc v -> max acc (String.length (string_of_int v))) acc row)
      1 grid
  in
  Array.iter
    (fun row ->
      Buffer.add_string buf "  ";
      Array.iter (fun v -> Printf.bprintf buf "[%*d]" width v) row;
      Buffer.add_char buf '\n')
    grid

let ascii ~outcome ~kernel ~seed ~arch () =
  let atts = attempts () in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "mapping report: %s (seed %d)\n" kernel seed;
  (match outcome with
  | Mapped m -> Printf.bprintf buf "result: mapped at II %d\n" m.Mapping.ii
  | Segments n -> Printf.bprintf buf "result: mapped %d segments\n" n
  | Failed -> Buffer.add_string buf "result: FAILED\n");
  Buffer.add_string buf "\nII search timeline:\n";
  if atts = [] then Buffer.add_string buf "  (no attempts recorded)\n"
  else
    List.iter
      (fun at ->
        let phases =
          String.concat " "
            (List.map (fun ph -> Printf.sprintf "%s=%.2fms" ph.ph_name ph.ph_ms) at.at_phases)
        in
        Printf.bprintf buf "  II %-3d %-4s %-6s %8.2fms  iters=%-6d %s%s\n" at.at_ii
          at.at_algo
          (if at.at_mapped then "ok" else "fail")
          at.at_ms at.at_iterations phases
          (match at.at_congestion with
          | [] -> ""
          | cells -> Printf.sprintf " overused_cells=%d" (List.length cells)))
      atts;
  (match phase_totals atts with
  | [] -> ()
  | totals ->
    Buffer.add_string buf "\nphase totals:\n";
    List.iter (fun (n, ms) -> Printf.bprintf buf "  %-10s %8.2fms\n" n ms) totals);
  (match outcome with
  | Segments _ | Failed -> ()
  | Mapped m ->
    Buffer.add_char buf '\n';
    render_grid buf "PE occupancy (placements + route hops per tile):" (occupancy_grid m);
    Buffer.add_string buf "\nutilization:\n";
    List.iter
      (fun (k, v) -> Printf.bprintf buf "  %-10s %5.1f%%\n" k (100.0 *. v))
      (Mapping.utilization m));
  let ou = overuse_grid arch atts in
  let any_overuse = Array.exists (fun row -> Array.exists (fun v -> v > 0) row) ou in
  if any_overuse then begin
    Buffer.add_char buf '\n';
    render_grid buf "channel overuse (worst presence-1 per tile, all attempts):" ou
  end;
  Buffer.contents buf
