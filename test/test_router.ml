(* Router tests: the router heap's properties against a reference model,
   zero-length route semantics, the architecture route tables, and a
   differential check of [Route.find] (A* + memo) against a plain
   lazy-deletion Dijkstra reference kept here in the test suite. *)

open Plaid_mapping
module Arch = Plaid_arch.Arch
module Mesh = Plaid_arch.Mesh

let check = Alcotest.check

let st4 = lazy (Mesh.build Mesh.spatio_temporal_4x4 ~name:"st4")

let fu_of pe =
  Mesh.fu_of_pe Mesh.spatio_temporal_4x4 ~row:(pe / 4) ~col:(pe mod 4)

(* ------------------------------------------------------------------ heap *)

module Heap = Route.Heap

(* reference model: id -> (key, sec), minimum under (key, sec, id) *)
let model_min model =
  Hashtbl.fold
    (fun id (k, s) best ->
      match best with
      | Some (bk, bs, bid) when (bk, bs, bid) <= (k, s, id) -> best
      | _ -> Some (k, s, id))
    model None

(* Keys [k / 4] and secs [k mod 4] make equal-key pushes with a smaller
   sec common, the decrease case the router's tie rule leans on. *)
let prop_heap_matches_model =
  QCheck.Test.make ~name:"indexed heap agrees with a reference model" ~count:300
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat ";"
            (List.map (fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) ops))
        Gen.(list_size (int_range 1 80) (triple (int_range 0 24) (int_range 0 40) (int_range 0 3))))
    (fun ops ->
      let h = Heap.create () in
      Heap.reserve h 25;
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (id, k, kind) ->
          let key = float_of_int (k / 4) and sec = float_of_int (k mod 4) in
          match (kind, Hashtbl.find_opt model id) with
          | (0 | 1), None ->
            (* insert an absent id *)
            Heap.push h id ~key ~sec;
            Hashtbl.replace model id (key, sec);
            true
          | (0 | 1 | 2), Some (k0, s0) ->
            (* lower a present id; a push may never raise one *)
            if (key, sec) <= (k0, s0) then begin
              Heap.push h id ~key ~sec;
              Hashtbl.replace model id (key, sec)
            end;
            true
          | 2, None -> true
          | _ -> (
            let got = Heap.pop h in
            match model_min model with
            | None -> got = -1
            | Some (_, _, id) ->
              Hashtbl.remove model id;
              got = id))
        ops
      && begin
        (* drain: pops must come out in strict (key, sec, id) order and
           empty the model *)
        let ok = ref true in
        let rec drain () =
          match Heap.pop h with
          | -1 -> ok := Hashtbl.length model = 0 && !ok
          | id ->
            (match model_min model with
            | Some (_, _, mid) when mid = id -> Hashtbl.remove model id
            | _ -> ok := false);
            drain ()
        in
        drain ();
        !ok
      end)

let prop_heap_clear_reuse =
  QCheck.Test.make ~name:"cleared heap reproduces a fresh heap's pops" ~count:100
    QCheck.(make Gen.(list_size (int_range 1 40) (pair (int_range 0 30) (int_range 0 9))))
    (fun items ->
      (* the first push of each id, then only the decreases *)
      let fill h =
        let seen = Hashtbl.create 16 in
        List.iter
          (fun (id, k) ->
            let key = float_of_int k and sec = float_of_int (id mod 3) in
            match Hashtbl.find_opt seen id with
            | Some k0 when k0 < key -> ()
            | _ ->
              Hashtbl.replace seen id key;
              Heap.push h id ~key ~sec)
          items
      in
      let drain h =
        let rec go acc = match Heap.pop h with -1 -> List.rev acc | id -> go (id :: acc) in
        go []
      in
      let fresh = Heap.create () in
      Heap.reserve fresh 31;
      fill fresh;
      let reused = Heap.create () in
      Heap.reserve reused 8;
      Heap.reserve reused 31;
      fill reused;
      (* leave some entries live, then clear mid-flight *)
      ignore (Heap.pop reused);
      Heap.clear reused;
      fill reused;
      drain fresh = drain reused)

(* ------------------------------------------------------ zero-length find *)

let test_route_length_zero () =
  let arch = Lazy.force st4 in
  let mrrg = Mrrg.create arch ~ii:2 in
  let fu = fu_of 5 in
  (match Route.find mrrg ~src_fu:fu ~src_node:0 ~t_src:1 ~dst_fu:fu ~length:0 ~mode:Route.Hard with
  | Some ([], 0.0) -> ()
  | Some _ -> Alcotest.fail "zero-length same-FU route is not the empty path"
  | None -> Alcotest.fail "zero-length same-FU route must exist");
  check Alcotest.bool "zero-length cross-FU is unroutable" true
    (Route.find mrrg ~src_fu:fu ~src_node:0 ~t_src:1 ~dst_fu:(fu_of 6) ~length:0
       ~mode:Route.Hard
    = None);
  check Alcotest.bool "negative length is unroutable" true
    (Route.find mrrg ~src_fu:fu ~src_node:0 ~t_src:1 ~dst_fu:fu ~length:(-1)
       ~mode:Route.Hard
    = None)

(* ----------------------------------------------------------- route tables *)

(* the hop/latency lower bounds must be consistent with the link graph:
   0 on the diagonal of every FU row, and within one link step of the
   successor's bound *)
let test_route_tables_consistent () =
  let arch = Lazy.force st4 in
  let rt = Arch.route_tables arch in
  let n = Arch.n_resources arch in
  check Alcotest.int "table covers every resource" n rt.Arch.rt_n;
  Array.iter
    (fun dst ->
      check Alcotest.int "self distance is zero" 0
        (Char.code (Bytes.get rt.Arch.rt_hop (rt.Arch.rt_row.(dst) + dst))))
    arch.Arch.fus;
  let dst = fu_of 0 in
  let row = rt.Arch.rt_row.(dst) in
  for res = 0 to n - 1 do
    let hop = Char.code (Bytes.get rt.Arch.rt_hop (row + res)) in
    if hop <> 255 then
      List.iter
        (fun (succ, _lat) ->
          let hs = Char.code (Bytes.get rt.Arch.rt_hop (row + succ)) in
          if hs <> 255 then
            check Alcotest.bool "triangle inequality over links" true (hop <= hs + 1))
        arch.Arch.out_links.(res)
  done;
  (* breaking a link rebuilds the cache from the pruned adjacency (only
     Broken_link faults prune links; FU/port faults mask MRRG cells, which
     the tables — admissible lower bounds — deliberately ignore).  Break
     the sole outgoing link of some resource: everything but itself
     becomes unreachable from there, while the original tables keep their
     entries. *)
  let sole =
    let rec scan res =
      if res >= n then Alcotest.fail "no single-exit resource in the mesh"
      else
        match arch.Arch.out_links.(res) with
        | [ (d, _) ] when d <> res -> (res, d)
        | _ -> scan (res + 1)
    in
    scan 0
  in
  let src, link_dst = sole in
  let faulted = Arch.set_faults arch [ Arch.Broken_link (src, link_dst) ] in
  let rt' = Arch.route_tables faulted in
  check Alcotest.int "dead-end source unreachable in faulted tables" 255
    (Char.code (Bytes.get rt'.Arch.rt_hop (rt'.Arch.rt_row.(dst) + src)));
  check Alcotest.bool "original tables unaffected by set_faults" true
    (Char.code (Bytes.get rt.Arch.rt_hop (row + src)) <> 255)

(* Every FU row of both tables equals a plain per-destination relaxation
   over [in_links] (Bellman-Ford to a fixpoint, clamped at 255); only FU
   destinations have rows, in [fus] order, and nothing else does. *)
let check_route_rows label arch =
  let rt = Arch.route_tables arch in
  let n = Arch.n_resources arch in
  let fus = arch.Arch.fus in
  check Alcotest.int (label ^ ": hop table size") (Array.length fus * n)
    (Bytes.length rt.Arch.rt_hop);
  check Alcotest.int (label ^ ": latency table size") (Array.length fus * n)
    (Bytes.length rt.Arch.rt_lat);
  let relax dst ~hops =
    let d = Array.make n 255 in
    d.(dst) <- 0;
    let changed = ref true in
    while !changed do
      changed := false;
      for v = 0 to n - 1 do
        if d.(v) < 255 then
          List.iter
            (fun (u, lat) ->
              let du = min 255 (d.(v) + if hops then 1 else lat) in
              if du < d.(u) then begin
                d.(u) <- du;
                changed := true
              end)
            arch.Arch.in_links.(v)
      done
    done;
    d
  in
  Array.iteri
    (fun k dst ->
      let row = rt.Arch.rt_row.(dst) in
      check Alcotest.int (label ^ ": row offset") (k * n) row;
      let hop = relax dst ~hops:true and lat = relax dst ~hops:false in
      for res = 0 to n - 1 do
        if Char.code (Bytes.get rt.Arch.rt_hop (row + res)) <> hop.(res)
           || Char.code (Bytes.get rt.Arch.rt_lat (row + res)) <> lat.(res)
        then
          Alcotest.failf "%s: row of %s disagrees at %s" label
            (Arch.resource arch dst).Arch.rname (Arch.resource arch res).Arch.rname
      done)
    fus;
  Array.iteri
    (fun res row ->
      match (Arch.resource arch res).Arch.kind with
      | Arch.Fu _ -> ()
      | Arch.Port | Arch.Reg ->
        check Alcotest.int (label ^ ": non-FU has no row") (-1) row)
    rt.Arch.rt_row

let test_route_rows_match_relaxation () =
  let fabric f = (Plaid_core.Fabrics.build f).Plaid_core.Fabrics.arch in
  let st4 = Lazy.force st4 in
  check_route_rows "st4" st4;
  check_route_rows "plaid_2x2" (fabric Plaid_core.Fabrics.Plaid);
  check_route_rows "plaid_ml" (fabric Plaid_core.Fabrics.Plaid_ml);
  (match Plaid_dse.Space.find_preset "paper" with
  | None -> Alcotest.fail "no paper preset"
  | Some space ->
    List.iter
      (fun c ->
        check_route_rows (Plaid_dse.Space.name c) (Plaid_dse.Space.build c).Plaid_dse.Space.arch)
      space.Plaid_dse.Space.candidates);
  let l = st4.Arch.links.(7) in
  check_route_rows "st4 broken link"
    (Arch.set_faults st4 [ Arch.Broken_link (l.Arch.lsrc, l.Arch.ldst) ])

(* --------------------------------------------------- reference router *)

(* A plain lazy-deletion Dijkstra over fresh arrays, written against the
   public Mrrg/Arch API only: no heuristic, no memo, no route tables.  It
   follows [Route.find]'s canonical tie rule (smallest predecessor id among
   equal costs; drain every state whose priority does not exceed the
   target's distance), so both must return structurally equal results. *)
module Frontier = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let reference_find mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length ~mode =
  let arch = Mrrg.arch mrrg in
  let ii = Mrrg.ii mrrg in
  let exclusive = Mrrg.exclusive mrrg in
  let len1 = length + 1 in
  let nstates = Arch.n_resources arch * len1 in
  let dist = Array.make nstates infinity in
  let prev = Array.make nstates (-1) in
  let popped = Array.make nstates false in
  let start = src_fu * len1 and target = (dst_fu * len1) + length in
  let slot_of e = (((t_src + e) mod ii) + ii) mod ii in
  let usable res slot signal =
    match mode with
    | Route.Hard -> Mrrg.can_use mrrg ~res ~slot signal
    | Route.Soft _ ->
      (not (Mrrg.blocked mrrg ~res ~slot)) && Mrrg.node_at mrrg ~fu:res ~slot = None
  in
  let step_cost res slot =
    let base = Arch.base_route_cost arch res in
    match mode with
    | Route.Hard -> base
    | Route.Soft { present_factor; history } ->
      let present = float_of_int (Mrrg.presence mrrg ~res ~slot) in
      (base *. (1.0 +. (present_factor *. present))) +. history.(res).(slot)
  in
  (* revisiting a resource at a different elapsed time collides modulo II,
     or at all under a frozen (exclusive) configuration *)
  let rec conflicts s res' e' =
    s <> start
    && ((s / len1 = res'
        && s mod len1 <> e'
        && (exclusive || ((s mod len1) - e') mod ii = 0))
       || conflicts prev.(s) res' e')
  in
  let expand q d s =
    let res = s / len1 and elapsed = s mod len1 in
    List.fold_left
      (fun q (dst, lat) ->
        let e' = elapsed + lat in
        let is_target = dst = dst_fu && e' = length in
        let through_fu =
          match (Arch.resource arch dst).Arch.kind with Arch.Fu _ -> not is_target | _ -> false
        in
        if e' > length || (through_fu && not arch.Arch.allow_fu_routethrough) then q
        else begin
          let slot = slot_of e' in
          let passable =
            is_target
            || usable dst slot { Mrrg.s_node = src_node; s_elapsed = e' }
               && not (conflicts s dst e')
          in
          if not passable then q
          else begin
            let nd = d +. if is_target then 0.0 else step_cost dst slot in
            let s' = (dst * len1) + e' in
            if nd < dist.(s') then begin
              dist.(s') <- nd;
              prev.(s') <- s;
              Frontier.add (nd, s') q
            end
            else begin
              if nd = dist.(s') && s < prev.(s') && ((not popped.(s')) || s' = target) then
                prev.(s') <- s;
              q
            end
          end
        end)
      q arch.Arch.out_links.(res)
  in
  let rec loop q =
    match Frontier.min_elt_opt q with
    | None -> ()
    | Some (d, _) when d > dist.(target) -> ()
    | Some ((d, s) as top) ->
      let q = Frontier.remove top q in
      if d > dist.(s) || popped.(s) then loop q
      else begin
        popped.(s) <- true;
        loop (if s = target then q else expand q d s)
      end
  in
  dist.(start) <- 0.0;
  loop (Frontier.singleton (0.0, start));
  if dist.(target) = infinity then None
  else begin
    let rec walk s acc =
      if s = start then acc else walk prev.(s) ((s / len1, s mod len1) :: acc)
    in
    Some (List.filter (fun step -> step <> (dst_fu, length)) (walk target []), dist.(target))
  end

(* Fabrics the router special-cases: a spatio-temporal mesh, a Plaid
   fabric (where the hierarchical mapper routes), a clock-gated mesh (the
   exclusive chain rule) and a faulted mesh (blocked cells, a dead FU and
   a broken link). *)
let plaid_2x2 =
  lazy (Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"plaid_2x2" ()).Plaid_core.Pcu.arch

let gated4 = lazy (Mesh.build Mesh.spatial_4x4 ~name:"spatial4")

let faulted4 =
  lazy
    (let arch = Lazy.force st4 in
     let faults =
       Array.to_list arch.Arch.resources
       |> List.filter_map (fun (r : Arch.resource) ->
              match r.kind with
              | Arch.Reg when r.id mod 5 = 0 -> Some (Arch.Stuck_config (r.id, r.id mod 2))
              | Arch.Port when r.id mod 11 = 0 -> Some (Arch.Broken_port r.id)
              | _ -> None)
     in
     let l = arch.Arch.links.(3) in
     Arch.set_faults arch
       (Arch.Dead_fu arch.Arch.fus.(5) :: Arch.Broken_link (l.Arch.lsrc, l.Arch.ldst) :: faults))

let fabrics =
  [| ("st4", st4); ("plaid_2x2", plaid_2x2); ("spatial4", gated4); ("faulted4", faulted4) |]

(* An MRRG pre-congested deterministically, so soft pricing, sharing and
   executing-node rules are exercised, not just empty-fabric shortest
   paths: five hard-routed values of nodes 11-15 and three placed nodes. *)
let congested arch ~ii =
  let fus = arch.Arch.fus in
  let fu i = fus.(i mod Array.length fus) in
  let mrrg = Mrrg.create arch ~ii in
  List.iter
    (fun (si, di, l, node, t0) ->
      match
        Route.find mrrg ~src_fu:(fu si) ~src_node:node ~t_src:t0 ~dst_fu:(fu di) ~length:l
          ~mode:Route.Hard
      with
      | Some (p, _) -> Route.occupy_path mrrg ~src_node:node ~t_src:t0 p
      | None -> ())
    [ (0, 5, 2, 11, 0); (5, 10, 3, 12, 1); (3, 0, 4, 13, 0); (12, 15, 2, 14, 2);
      (7, 1, 5, 15, 1) ];
  List.iter
    (fun (i, node, slot) ->
      if Mrrg.fu_free mrrg ~fu:(fu i) ~slot then Mrrg.place_node mrrg ~node ~fu:(fu i) ~slot)
    [ (9, 20, 0); (2, 21, 1); (14, 22, 0) ];
  mrrg

(* Identical queries against identical occupancy must give structurally
   identical (path, cost) results from [Route.find] and the reference —
   including repeat queries (memo hits), queries after occupancy
   mutations (memo invalidation), and soft queries asked again under
   another present factor.  Lengths up to 12 at II 1-2 hold registers for
   II cycles or more, so the chain rule decides paths. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"search matches the Dijkstra reference" ~count:240
    QCheck.(
      make
        ~print:(fun (f, a, b, l, ii, t, soft) ->
          Printf.sprintf "fabric=%s src=%d dst=%d len=%d ii=%d t_src=%d soft=%b"
            (fst fabrics.(f)) a b l ii t soft)
        Gen.(
          map
            (fun ((f, a, b), (l, ii), (t, soft)) -> (f, a, b, l, ii, t, soft))
            (triple
               (triple (int_range 0 3) (int_range 0 63) (int_range 0 63))
               (oneof
                  [ pair (int_range 0 8) (int_range 1 4); pair (int_range 4 12) (int_range 1 2) ])
               (pair (int_range 0 3) bool))))
    (fun (f, src_i, dst_i, len, ii, t_src, soft) ->
      let arch = Lazy.force (snd fabrics.(f)) in
      let fus = arch.Arch.fus in
      let fu i = fus.(i mod Array.length fus) in
      let history =
        Array.init (Arch.n_resources arch) (fun r ->
            Array.init ii (fun s -> float_of_int (((r * 7) + (s * 3)) mod 5) *. 0.3))
      in
      let soft_mode present_factor = Route.Soft { present_factor; history } in
      let mode = if soft then soft_mode 0.7 else Route.Hard in
      let src_fu = fu src_i and dst_fu = fu dst_i in
      let mrrg = congested arch ~ii in
      let agree mode =
        Route.find mrrg ~src_fu ~src_node:3 ~t_src ~dst_fu ~length:len ~mode
        = reference_find mrrg ~src_fu ~src_node:3 ~t_src ~dst_fu ~length:len ~mode
      in
      let first = agree mode in
      let repeat = agree mode in
      (* mutate occupancy, then query again: the memo must notice the
         footprint change *)
      let mutated =
        match Route.find mrrg ~src_fu ~src_node:3 ~t_src ~dst_fu ~length:len ~mode with
        | Some (p, _) when p <> [] ->
          Route.occupy_path mrrg ~src_node:3 ~t_src p;
          let ok = agree mode in
          Route.release_path mrrg ~src_node:3 ~t_src p;
          ok
        | _ -> agree mode
      in
      (* the same soft query under another present factor: the memo must
         not answer it from the first factor's entry where a probed cell
         is occupied *)
      let repriced = (not soft) || (agree (soft_mode 1.9) && agree mode) in
      first && repeat && mutated && repriced)

(* The memo answers a repeat query exactly when no probed cell changed in
   a way the search can observe.  Starting from the query's own path P
   (node 3's value, first step (r, e)), in hard and soft mode:
   - a foreign signal taking P's first cell is observable: a miss;
   - a second reference to every cell of an occupied P is not: a hit;
   - moving node 3's signal on r from elapsed e to e + II (the same slot)
     is observable only in hard mode, where sharing needs the same
     elapsed: a miss there, a hit in soft mode, which prices presence;
   - one foreign signal swapped for another on a cell holding only that
     signal is not: a hit.
   Every answer must also equal the reference router's. *)
let prop_memo_observes =
  let module Metrics = Plaid_obs.Metrics in
  QCheck.Test.make ~name:"memo answers what the search cannot observe" ~count:200
    QCheck.(
      make
        ~print:(fun (f, a, b, l, ii, t, soft) ->
          Printf.sprintf "fabric=%s src=%d dst=%d len=%d ii=%d t_src=%d soft=%b"
            (fst fabrics.(f)) a b l ii t soft)
        Gen.(
          map
            (fun ((f, a, b), (l, ii), (t, soft)) -> (f, a, b, l, ii, t, soft))
            (triple
               (triple (int_range 0 3) (int_range 0 63) (int_range 0 63))
               (pair (int_range 1 8) (int_range 1 4))
               (pair (int_range 0 3) bool))))
    (fun (f, src_i, dst_i, len, ii, t_src, soft) ->
      let arch = Lazy.force (snd fabrics.(f)) in
      let fus = arch.Arch.fus in
      let src_fu = fus.(src_i mod Array.length fus) and dst_fu = fus.(dst_i mod Array.length fus) in
      let history =
        Array.init (Arch.n_resources arch) (fun r ->
            Array.init ii (fun s -> float_of_int (((r * 5) + s) mod 4) *. 0.4))
      in
      let mode = if soft then Route.Soft { present_factor = 0.9; history } else Route.Hard in
      let mrrg = congested arch ~ii in
      let src_node = 3 in
      let hits () =
        Option.value ~default:0
          (List.assoc_opt "route/memo_hits" (Metrics.snapshot ()).Metrics.counters)
      in
      (* [Some hit] for one query, [None] when it disagrees with the
         reference *)
      let ask () =
        let before = hits () in
        let got = Route.find mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length:len ~mode in
        let hit = hits () = before + 1 in
        if got = reference_find mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length:len ~mode then
          Some hit
        else None
      in
      let signal node e = { Mrrg.s_node = node; s_elapsed = e } in
      let occupy (r, e) node = Mrrg.occupy mrrg ~res:r ~slot:(t_src + e) (signal node e)
      and release (r, e) node = Mrrg.release mrrg ~res:r ~slot:(t_src + e) (signal node e) in
      let own_path_cases first =
        match first with
        | Some (((r, e) :: _ as p), _) ->
          occupy (r, e) 97;
          let taken = ask () = Some false in
          release (r, e) 97;
          Route.occupy_path mrrg ~src_node ~t_src p;
          let settled = ask () <> None in
          Route.occupy_path mrrg ~src_node ~t_src p;
          let bumped = ask () = Some true in
          Route.release_path mrrg ~src_node ~t_src p;
          release (r, e) src_node;
          Mrrg.occupy mrrg ~res:r ~slot:(t_src + e) (signal src_node (e + ii));
          let moved = ask () = Some soft in
          Mrrg.release mrrg ~res:r ~slot:(t_src + e) (signal src_node (e + ii));
          occupy (r, e) src_node;
          taken && settled && bumped && moved
        | _ -> true
      in
      (* one foreign signal of the first cell that holds only that signal *)
      let swap_case () =
        let cells = Mrrg.cells mrrg in
        let lone = ref None in
        Array.iteri
          (fun r row ->
            Array.iteri
              (fun slot (c : Mrrg.cell) ->
                match (!lone, c.Mrrg.exec, c.Mrrg.signals) with
                | None, None, [ (sg, n) ] when sg.Mrrg.s_node <> src_node ->
                  lone := Some (r, slot, sg, n)
                | _ -> ())
              row)
          cells;
        match !lone with
        | None -> true
        | Some (r, slot, sg, n) ->
          let settled = ask () <> None in
          let other = { sg with Mrrg.s_node = 96 } in
          for _ = 1 to n do
            Mrrg.release mrrg ~res:r ~slot sg
          done;
          Mrrg.occupy mrrg ~res:r ~slot other;
          let swapped = ask () = Some true in
          Mrrg.release mrrg ~res:r ~slot other;
          for _ = 1 to n do
            Mrrg.occupy mrrg ~res:r ~slot sg
          done;
          settled && swapped
      in
      let was = Metrics.enabled () in
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled was)
        (fun () ->
          let first = Route.find mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length:len ~mode in
          first = reference_find mrrg ~src_fu ~src_node ~t_src ~dst_fu ~length:len ~mode
          && own_path_cases first
          && swap_case ()))

(* ----------------------------------------------------------------- suite *)

let suites =
  [ ( "router",
      [ Alcotest.test_case "zero-length routes" `Quick test_route_length_zero;
        Alcotest.test_case "route tables consistent with links" `Quick
          test_route_tables_consistent;
        Alcotest.test_case "route table rows match a plain relaxation" `Quick
          test_route_rows_match_relaxation;
        Test_qc.to_alcotest prop_heap_matches_model;
        Test_qc.to_alcotest prop_heap_clear_reuse;
        Test_qc.to_alcotest prop_matches_reference;
        Test_qc.to_alcotest prop_memo_observes ] ) ]
