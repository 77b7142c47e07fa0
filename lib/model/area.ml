open Plaid_arch

let category_of_class = function
  | "alu" | "alsu" | "alu_pruned" | "alsu_pruned" -> Report.Compute
  | "router_port" | "out_reg" | "local_port" | "global_port" | "global_out_reg" -> Report.Comm
  | _ -> Report.Regs

let fabric (arch : Arch.t) =
  let acc = Report.acc () in
  Array.iter
    (fun (r : Arch.resource) ->
      let a = Tech.area_of_class r.area_class in
      (* crossbar silicon: one crosspoint per selectable input *)
      let indeg = List.length arch.in_links.(r.id) in
      let xbar = if indeg > 1 then float_of_int indeg *. Tech.crosspoint_area else 0.0 in
      match category_of_class r.area_class with
      | Report.Comm -> Report.add acc Comm (a +. xbar)
      | cat ->
        Report.add acc cat a;
        Report.add acc Comm xbar)
    arch.resources;
  let entries = float_of_int arch.config.entries in
  Report.add acc Compute_config
    (float_of_int arch.config.compute_bits *. entries *. Tech.config_area_per_bit);
  Report.add acc Comm_config
    (float_of_int arch.config.comm_bits *. entries *. Tech.config_area_per_bit);
  Report.to_report acc

let fabric_total arch = Report.total (fabric arch)

let spm ~kb = float_of_int kb *. Tech.spm_area_per_kb

let system arch ~spm_kb = fabric_total arch +. spm ~kb:spm_kb
