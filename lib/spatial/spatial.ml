open Plaid_ir
open Plaid_mapping

type result = {
  part : Partition.t;
  mappings : Mapping.t list;
}

let arch () =
  Plaid_arch.Mesh.build
    { Plaid_arch.Mesh.spatial_4x4 with config_entries = 1 }
    ~name:"spatial4x4"

let spm_ports = 4

(* A spatial segment executes with a frozen configuration: placement is one
   node per FU (exclusive MRRG) and throughput is bounded only by the
   segment's recurrences, so it maps at exactly II = RecMII (dataflow
   stalling), not at the configuration depth. *)
let map_segment a seg ~seed =
  let cap = Plaid_arch.Arch.capacity a in
  (* pad non-recurrence edges with a two-cycle routing budget; edges inside
     a dependence cycle keep unit spacing so II = RecMII stays feasible *)
  let comp = Partition.scc_ids seg in
  let mixed (e : Plaid_ir.Dfg.edge) = if comp.(e.src) = comp.(e.dst) then 1 else 2 in
  (* throughput floor: recurrences, and the four single-ported scratchpad
     banks — a segment with more live memory operations than ports stalls *)
  let mem_ops = Plaid_ir.Analysis.n_memory_class seg in
  let rec_mii =
    max (Plaid_ir.Analysis.rec_mii seg) ((mem_ops + spm_ports - 1) / spm_ports)
  in
  let memo = Plaid_util.Memo.create 8 in
  let schedules ii =
    Plaid_util.Memo.find_or_compute memo ii (fun () ->
        List.filter_map Fun.id
          [ Schedule.compute ~lat_for:mixed seg ~ii ~cap; Schedule.compute seg ~ii ~cap ])
  in
  (* one RNG threaded through the IIs, one stream per schedule tried *)
  let attempt ii =
    let rng =
      Driver.threaded_stream ~seed ~mii:rec_mii ~draws:(fun i -> List.length (schedules i)) ii
    in
    List.find_map
      (fun times ->
        Anneal.map_at_ii a seg ~ii ~times
          ~params:{ Anneal.default with restarts = 8 }
          ~rng:(Plaid_util.Rng.split rng))
      (schedules ii)
  in
  (* a dataflow segment may also run slower than its recurrence bound when
     routing is cramped: feedback paths simply stretch, up to
     II = 2 * RecMII + 4 *)
  (Driver.search ~name:"spatial" ~seed ~mii:rec_mii ~max_ii:((2 * rec_mii) + 4) attempt)
    .Driver.mapping

let run ?(seed = 1) g =
  let a = arch () in
  let cap = Plaid_arch.Arch.capacity a in
  (* budget ladder: fully packed segments leave no routing slack, so retry
     with progressively roomier segments when place-and-route fails *)
  let budgets =
    let m = cap.Analysis.memory_slots and n = cap.Analysis.total_slots in
    [ (n, m); (n, m - 1); (n - 2, m - 2); (n - 4, m - 2); (n - 6, m - 3); (8, 4); (6, 3); (4, 2) ]
  in
  let rec attempt = function
    | [] -> Error (Printf.sprintf "Spatial: cannot map %s" g.Dfg.name)
    | (max_nodes, max_memory) :: rest -> (
      match Partition.partition g ~max_nodes ~max_memory with
      | Error _ -> attempt rest
      | Ok part -> (
        let mapped = List.map (fun seg -> map_segment a seg ~seed) part.Partition.segments in
        if List.mem None mapped then attempt rest
        else Ok { part; mappings = List.filter_map Fun.id mapped }))
  in
  attempt budgets
