open Plaid_arch
open Plaid_mapping

(* Distinct wire occupancies per II window: every (resource, slot) a signal
   holds activates that resource once per II cycles.  Float addition is not
   associative, so the order they are summed in is part of every report's
   bits.  It is the order in which [Hashtbl.fold] visits a table of the
   pairs filled in route order (256 buckets, doubled whenever there are
   more than two entries per bucket): buckets from last to first, first
   seen first within a bucket. *)
let wire_events (m : Mapping.t) =
  let ii = m.ii in
  let hops =
    List.fold_left (fun n (r : Mapping.route_entry) -> n + List.length r.re_path) 0 m.routes
  in
  let seen = Bytes.make (Arch.n_resources m.arch * ii) '\000' in
  let res = Array.make hops 0 and bucket = Array.make hops 0 in
  let n = ref 0 in
  List.iter
    (fun (r : Mapping.route_entry) ->
      let t_src = m.times.(r.re_edge.src) in
      List.iter
        (fun (rid, elapsed) ->
          let slot = Schedule.slot ~ii (t_src + elapsed) in
          let key = (rid * ii) + slot in
          if Bytes.get seen key = '\000' then begin
            Bytes.set seen key '\001';
            res.(!n) <- rid;
            bucket.(!n) <- Hashtbl.hash (rid, slot);
            incr n
          end)
        r.re_path)
    m.routes;
  let size = ref 256 in
  while !n > 2 * !size do
    size := 2 * !size
  done;
  (* stable counting sort on the bucket, last bucket first *)
  let rank i = !size - 1 - (bucket.(i) land (!size - 1)) in
  let start = Array.make (!size + 1) 0 in
  for i = 0 to !n - 1 do
    start.(rank i + 1) <- start.(rank i + 1) + 1
  done;
  for b = 1 to !size do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let order = Array.make !n 0 in
  for i = 0 to !n - 1 do
    let b = rank i in
    order.(start.(b)) <- res.(i);
    start.(b) <- start.(b) + 1
  done;
  order

let fabric (m : Mapping.t) =
  let arch = m.arch in
  let acc = Report.acc () in
  let ii = float_of_int m.ii in
  (* leakage, by category, proportional to area *)
  List.iter
    (fun (cat, a) -> Report.add acc (Report.category_of_name cat) (a *. Tech.leakage_per_area))
    (Area.fabric arch);
  (* configuration readout *)
  if not arch.Arch.config.clock_gated then begin
    let entriesless bits = float_of_int bits *. Tech.config_read_power_per_bit in
    Report.add acc Compute_config (entriesless arch.Arch.config.compute_bits);
    Report.add acc Comm_config (entriesless arch.Arch.config.comm_bits)
  end;
  (* FU firings: every node issues once per II, weighted by the operation's
     switching activity *)
  Array.iteri
    (fun v fu ->
      let cls = (Arch.resource arch fu).area_class in
      let f = Tech.op_activity_factor (Plaid_ir.Dfg.node m.dfg v).op in
      Report.add acc Compute (f *. Tech.dynamic_of_class cls /. ii))
    m.place;
  (* routed traffic *)
  Array.iter
    (fun res ->
      let cls = (Arch.resource arch res).area_class in
      Report.add acc (Area.category_of_class cls) (Tech.dynamic_of_class cls /. ii))
    (wire_events m);
  Report.to_report acc

let fabric_total m = Report.total (fabric m)

let spm (m : Mapping.t) ~kb =
  let mem_nodes = Plaid_ir.Analysis.n_memory_class m.dfg in
  let accesses_per_cycle = float_of_int mem_nodes /. float_of_int m.ii in
  (accesses_per_cycle *. Tech.spm_access_power) +. (float_of_int kb *. Tech.spm_leakage_per_kb)

let system m ~spm_kb = fabric_total m +. spm m ~kb:spm_kb

let idle_fabric arch = Area.fabric_total arch *. Tech.leakage_per_area
