open Plaid_ir

type field = {
  f_res : int;
  f_slot : int;
  f_kind : [ `Op | `Imm of int | `Mux of int ];
  f_width : int;
  f_value : int;
}

type t = {
  arch : Plaid_arch.Arch.t;
  ii : int;
  fields : field list;
}

let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  if n <= 1 then 0 else go 0 1

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let err fmt = Printf.ksprintf (fun s -> Error s) fmt


(* opcode encoding is per functional unit: the index into its own operation
   list (0 = nop), so a lean FU gets a lean opcode field *)
let op_field arch ~fu ~slot op =
  match (Plaid_arch.Arch.resource arch fu).Plaid_arch.Arch.kind with
  | Plaid_arch.Arch.Fu c ->
    let ops = c.Plaid_arch.Arch.fu_ops in
    let rec index i = function
      | [] -> None
      | o :: rest -> if Op.equal o op then Some i else index (i + 1) rest
    in
    (match index 0 ops with
    | None -> err "op %s not supported by fu %d" (Op.to_string op) fu
    | Some i ->
      Ok
        { f_res = fu; f_slot = slot; f_kind = `Op;
          f_width = ceil_log2 (List.length ops + 1); f_value = i + 1 })
  | _ -> err "resource %d is not a functional unit" fu

let imm_field ~fu ~slot ~operand value =
  if value < -128 || value > 127 then
    err "immediate %d out of the 8-bit constant range (Section 4.3)" value
  else
    Ok
      { f_res = fu; f_slot = slot; f_kind = `Imm operand; f_width = 8;
        f_value = value land 0xFF }

(* Which position [src] holds among [dst]'s input links; mux encoding is
   that position + 1 (0 means idle / no drive). *)
let mux_value (arch : Plaid_arch.Arch.t) ~dst ~src =
  let rec index i = function
    | [] -> None
    | (s, _) :: rest -> if s = src then Some i else index (i + 1) rest
  in
  index 0 arch.in_links.(dst)

let mux_width (arch : Plaid_arch.Arch.t) dst =
  let indeg = List.length arch.in_links.(dst) in
  ceil_log2 (indeg + 1) + Plaid_arch.Config_bits.mux_overhead_bits

let generate (m : Mapping.t) =
  let arch = m.arch in
  let ii = m.ii in
  (* (res, slot, mux) -> selected source, tagged with the signal it
     carries.  Two routes may legally reach the same mux through different
     predecessors when both carry the same value at the same moment
     (multicast sharing): the configuration then picks one of them.  A
     conflict between *different* signals is a mapper bug. *)
  let selections : (int * int * int, int * (int * int)) Hashtbl.t = Hashtbl.create 256 in
  let select ~res ~slot ~mux ~src ~signal =
    match Hashtbl.find_opt selections (res, slot, mux) with
    | None ->
      Hashtbl.replace selections (res, slot, mux) (src, signal);
      Ok ()
    | Some (prev, _) when prev = src -> Ok ()
    | Some (_, prev_signal) when prev_signal = signal ->
      Ok () (* equivalent source: same value at the same moment *)
    | Some (prev, _) ->
      err "mux conflict on %s slot %d mux %d: sources %d and %d"
        (Plaid_arch.Arch.resource arch res).rname slot mux prev src
  in
  let rec walk_route (e : Dfg.edge) prev = function
    | [] ->
      let length = m.times.(e.dst) - m.times.(e.src) + (e.dist * ii) in
      select ~res:m.place.(e.dst)
        ~slot:(Schedule.slot ~ii m.times.(e.dst))
        ~mux:e.operand ~src:prev ~signal:(e.src, length)
    | (res, elapsed) :: rest ->
      let slot = Schedule.slot ~ii (m.times.(e.src) + elapsed) in
      let* () = select ~res ~slot ~mux:0 ~src:prev ~signal:(e.src, elapsed) in
      walk_route e res rest
  in
  let rec routes = function
    | [] -> Ok ()
    | (r : Mapping.route_entry) :: rest ->
      let* () = walk_route r.re_edge m.place.(r.re_edge.src) r.re_path in
      routes rest
  in
  let* () = routes m.routes in
  (* operand muxes with an immediate are driven by the constant field, not a
     mux selection; nothing to emit for them *)
  let* fu_fields =
    Array.to_list m.place
    |> List.mapi (fun v fu -> (v, fu))
    |> List.fold_left
         (fun acc (v, fu) ->
           let* acc = acc in
           let nd = Dfg.node m.dfg v in
           let slot = Schedule.slot ~ii m.times.(v) in
           let* op = op_field arch ~fu ~slot nd.op in
           let* imms =
             List.fold_left
               (fun acc (operand, value) ->
                 let* acc = acc in
                 let* f = imm_field ~fu ~slot ~operand value in
                 Ok (f :: acc))
               (Ok []) nd.imms
           in
           Ok ((op :: imms) @ acc))
         (Ok [])
  in
  let mux_fields =
    Hashtbl.fold
      (fun (res, slot, mux) (src, _) acc ->
        match mux_value arch ~dst:res ~src with
        | None -> acc (* unreachable: routes only follow real links *)
        | Some i ->
          { f_res = res; f_slot = slot; f_kind = `Mux mux; f_width = mux_width arch res;
            f_value = i + 1 }
          :: acc)
      selections []
  in
  let fields =
    List.sort compare (fu_fields @ mux_fields)
  in
  Ok { arch; ii; fields }

let total_bits t = List.fold_left (fun acc f -> acc + f.f_width) 0 t.fields

let budget_bits t = Plaid_arch.Arch.config_bits_per_entry t.arch * t.ii

let source_of ?(mux = 0) t ~res ~slot =
  List.find_map
    (fun f ->
      if f.f_res = res && f.f_slot = slot && f.f_kind = `Mux mux && f.f_value > 0 then
        match List.nth_opt t.arch.in_links.(res) (f.f_value - 1) with
        | Some (src, _) -> Some src
        | None -> None
      else None)
    t.fields

let pp_listing fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun f ->
      let r = Plaid_arch.Arch.resource t.arch f.f_res in
      let kind =
        match f.f_kind with
        | `Op -> "op"
        | `Imm i -> Printf.sprintf "imm[%d]" i
        | `Mux i -> Printf.sprintf "mux[%d]" i
      in
      Format.fprintf fmt "%-24s slot %d  %-7s = %d (%d bits)@," r.rname f.f_slot kind f.f_value
        f.f_width)
    t.fields;
  Format.fprintf fmt "total %d bits (budget %d)@]" (total_bits t) (budget_bits t)
