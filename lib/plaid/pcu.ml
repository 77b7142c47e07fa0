open Plaid_arch

type pcu = {
  row : int;
  col : int;
  alus : int array;
  alsu : int;
  hardwired : Motif.kind option;
}

type t = { arch : Arch.t; pcus : pcu array; rows : int; cols : int }

type ports = {
  p_alus : int array;
  p_alsu : int;
  gr_in : int array;   (* n, s, e, w *)
  gr_out : int array;  (* n, s, e, w — registered *)
}

let dirs = [| "n"; "s"; "e"; "w" |]

let global_in_legs = 2

(* Build one PCU's internals; returns the ports needed for mesh wiring. *)
let build_pcu b ~row ~col ~memory ~hardwired ~bypass =
  let tile = (row, col) in
  let pname = Printf.sprintf "pcu%d_%d" row col in
  let res ?(cls = "local_port") name kind =
    Arch.add_resource b ~name:(pname ^ "." ^ name) ~kind ~tile ~area_class:cls
  in
  let alus =
    Array.init 3 (fun i ->
        res ~cls:"alu" (Printf.sprintf "alu%d" i) (Arch.Fu Arch.alu_compute_class))
  in
  let alsu_cls =
    if memory then Arch.alsu_class
    else { Arch.fu_ops = Arch.alsu_class.Arch.fu_ops; fu_memory = false }
  in
  let alsu = res ~cls:"alsu" "alsu" (Arch.Fu alsu_cls) in
  (* global router legs *)
  let gr_in = Array.map (fun d -> res ~cls:"global_port" ("gr_in_" ^ d) Arch.Port) dirs in
  let gr_out =
    Array.map (fun d -> res ~cls:"global_out_reg" ("gr_out_" ^ d) Arch.Reg) dirs
  in
  let gr_from_alsu = res ~cls:"global_port" "gr_from_alsu" Arch.Port in
  (* two operand legs for the ALSU as well (stores + predication) *)
  let gr_to_alsu = Array.init 2 (fun i -> res ~cls:"global_port" (Printf.sprintf "gr_to_alsu%d" i) Arch.Port) in
  (* two parallel legs each way between the routers: the local router
     "delivers inputs to each of the three ALUs per cycle", so a single
     global-to-local wire would starve motifs of external operands *)
  let lr_from_gr =
    Array.init global_in_legs (fun i -> res (Printf.sprintf "lr_from_gr%d" i) Arch.Port)
  in
  let lr_to_gr = Array.init 2 (fun i -> res (Printf.sprintf "lr_to_gr%d" i) Arch.Port) in
  let gregs = Array.init 2 (fun i -> res ~cls:"reg" (Printf.sprintf "greg%d" i) Arch.Reg) in
  (* ALSU result goes onto the global datapath; operands come from it. *)
  Arch.add_link b ~src:alsu ~dst:gr_from_alsu ~latency:1;
  Array.iter (fun leg -> Arch.add_link b ~src:leg ~dst:alsu ~latency:0) gr_to_alsu;
  (* Global crossbar.  The lr_from_gr output is excluded as a source of
     lr_to_gr (below) — that would be the forbidden combinational loop. *)
  let g_sources =
    Array.to_list gr_in @ Array.to_list lr_to_gr @ (gr_from_alsu :: Array.to_list gregs)
  in
  let g_sinks_reg = Array.to_list gr_out in
  let g_sinks_wire = Array.to_list lr_from_gr @ Array.to_list gr_to_alsu in
  List.iter
    (fun s ->
      List.iter (fun d -> Arch.add_link b ~src:s ~dst:d ~latency:1) g_sinks_reg;
      List.iter (fun d -> Arch.add_link b ~src:s ~dst:d ~latency:0) g_sinks_wire;
      Array.iter (fun gg -> Arch.add_link b ~src:s ~dst:gg ~latency:1) gregs)
    g_sources;
  Array.iter (fun gg -> Arch.add_link b ~src:gg ~dst:gg ~latency:1) gregs;
  Array.iter (fun go -> Arch.add_link b ~src:go ~dst:go ~latency:1) gr_out;
  (match hardwired with
  | None ->
    (* Local router: one input leg per ALU result, one output leg per ALU
       *operand* (two per ALU: an operation consumes both operands in the
       same cycle), plus the global exchange legs and two hold regs. *)
    let lr_from_alu = Array.init 3 (fun i -> res (Printf.sprintf "lr_from_alu%d" i) Arch.Port) in
    let lr_to_alu =
      Array.init 6 (fun i -> res (Printf.sprintf "lr_to_alu%d_%c" (i / 2) (if i mod 2 = 0 then 'a' else 'b')) Arch.Port)
    in
    let lregs = Array.init 2 (fun i -> res ~cls:"reg" (Printf.sprintf "lreg%d" i) Arch.Reg) in
    Array.iteri (fun i alu -> Arch.add_link b ~src:alu ~dst:lr_from_alu.(i) ~latency:1) alus;
    Array.iteri (fun i leg -> Arch.add_link b ~src:leg ~dst:alus.(i / 2) ~latency:0) lr_to_alu;
    let from_gr = Array.to_list lr_from_gr in
    let l_sources = Array.to_list lr_from_alu @ from_gr @ Array.to_list lregs in
    List.iter
      (fun s ->
        Array.iter (fun d -> Arch.add_link b ~src:s ~dst:d ~latency:0) lr_to_alu;
        (* global-to-local data must not re-enter the global path in the
           same cycle (hardware loop constraint) *)
        if not (List.mem s from_gr) then
          Array.iter (fun d -> Arch.add_link b ~src:s ~dst:d ~latency:0) lr_to_gr;
        Array.iter (fun r -> Arch.add_link b ~src:s ~dst:r ~latency:1) lregs)
      l_sources;
    Array.iter (fun r -> Arch.add_link b ~src:r ~dst:r ~latency:1) lregs
  | Some kind ->
    (* Hardwired motif: fixed ALU-to-ALU wiring replaces the local router;
       operands arrive from / results leave to the global datapath through
       single shared legs. *)
    let feed =
      Array.init global_in_legs (fun i -> res (Printf.sprintf "hw_feed%d" i) Arch.Port)
    in
    let drain = res "hw_drain" Arch.Port in
    Array.iteri (fun i f -> Arch.add_link b ~src:lr_from_gr.(i) ~dst:f ~latency:0) feed;
    Array.iter
      (fun f -> Array.iter (fun alu -> Arch.add_link b ~src:f ~dst:alu ~latency:0) alus)
      feed;
    Array.iter (fun alu -> Arch.add_link b ~src:alu ~dst:drain ~latency:1) alus;
    Array.iter (fun d -> Arch.add_link b ~src:drain ~dst:d ~latency:0) lr_to_gr;
    let wire (i, j) = Arch.add_link b ~src:alus.(i) ~dst:alus.(j) ~latency:1 in
    (match kind with
    | Motif.Fan_out -> List.iter wire [ (0, 1); (0, 2) ]
    | Motif.Fan_in -> List.iter wire [ (0, 1); (2, 1) ]
    | Motif.Unicast -> List.iter wire [ (0, 1); (1, 2) ]));
  (* Virtual bypass paths between adjacent ALUs (left-to-right). *)
  (match hardwired with
  | None when bypass ->
    Arch.add_link b ~src:alus.(0) ~dst:alus.(1) ~latency:1;
    Arch.add_link b ~src:alus.(1) ~dst:alus.(2) ~latency:1
  | None | Some _ -> ());
  ({ p_alus = alus; p_alsu = alsu; gr_in; gr_out },
   { row; col; alus; alsu; hardwired })

let build ?(specialize = fun _ -> None) ?(bypass = true) ~rows ~cols ~name () =
  let dummy = { Arch.compute_bits = 0; comm_bits = 0; entries = 16; clock_gated = false } in
  let b = Arch.builder ~name ~config:dummy () in
  let ports = Array.make (rows * cols) None in
  let pcus = Array.make (rows * cols) None in
  for row = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      let idx = (row * cols) + col in
      let memory = row = 0 || col = 0 || row = rows - 1 || col = cols - 1 in
      let p, d = build_pcu b ~row ~col ~memory ~hardwired:(specialize idx) ~bypass in
      ports.(idx) <- Some p;
      pcus.(idx) <- Some d
    done
  done;
  let port_at r c = Option.get ports.((r * cols) + c) in
  (* Conveyor-belt mesh: registered gr_out drives the facing gr_in. *)
  let dir_index = function "n" -> 0 | "s" -> 1 | "e" -> 2 | "w" -> 3 | _ -> assert false in
  for row = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      let p = port_at row col in
      if row > 0 then
        Arch.add_link b ~src:p.gr_out.(dir_index "n")
          ~dst:(port_at (row - 1) col).gr_in.(dir_index "s") ~latency:0;
      if row < rows - 1 then
        Arch.add_link b ~src:p.gr_out.(dir_index "s")
          ~dst:(port_at (row + 1) col).gr_in.(dir_index "n") ~latency:0;
      if col > 0 then
        Arch.add_link b ~src:p.gr_out.(dir_index "w")
          ~dst:(port_at row (col - 1)).gr_in.(dir_index "e") ~latency:0;
      if col < cols - 1 then
        Arch.add_link b ~src:p.gr_out.(dir_index "e")
          ~dst:(port_at row (col + 1)).gr_in.(dir_index "w") ~latency:0
    done
  done;
  let arch = Arch.freeze b in
  let arch = Config_bits.attach arch ~entries:16 ~clock_gated:false in
  { arch; pcus = Array.map Option.get pcus; rows; cols }

let pcu_of_fu t fu =
  let found = ref None in
  Array.iteri
    (fun i p ->
      if p.alsu = fu || Array.exists (( = ) fu) p.alus then
        if !found = None then found := Some i)
    t.pcus;
  !found

let n_fus t = 4 * Array.length t.pcus
