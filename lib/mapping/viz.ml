open Plaid_ir


(* short, unique-enough cell text for a node *)
let cell_label (g : Dfg.t) v =
  let nd = Dfg.node g v in
  Printf.sprintf "%s%d" (Op.to_string nd.op) v

let fabric_view (m : Mapping.t) =
  let arch = m.arch in
  let tiles =
    Array.fold_left
      (fun (rmax, cmax) (r : Plaid_arch.Arch.resource) ->
        let row, col = r.tile in
        (max rmax row, max cmax col))
      (0, 0) arch.resources
  in
  let rows = fst tiles + 1 and cols = snd tiles + 1 in
  let buf = Buffer.create 1024 in
  for slot = 0 to m.ii - 1 do
    Printf.bprintf buf "slot %d/%d\n" slot m.ii;
    (* collect cell contents *)
    let cells = Array.make_matrix rows cols [] in
    Array.iteri
      (fun v fu ->
        if Schedule.slot ~ii:m.ii m.times.(v) = slot then begin
          let row, col = (Plaid_arch.Arch.resource arch fu).tile in
          cells.(row).(col) <- cell_label m.dfg v :: cells.(row).(col)
        end)
      m.place;
    let width =
      Array.fold_left
        (fun acc row ->
          Array.fold_left
            (fun acc cell -> max acc (String.length (String.concat "," cell)))
            acc row)
        7 cells
    in
    for r = 0 to rows - 1 do
      Buffer.add_string buf "  ";
      for c = 0 to cols - 1 do
        let text = String.concat "," (List.rev cells.(r).(c)) in
        Printf.bprintf buf "[%-*s]" width text
      done;
      Buffer.add_char buf '\n'
    done
  done;
  Buffer.contents buf

let route_view (m : Mapping.t) =
  let arch = m.arch in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : Mapping.route_entry) ->
      let e = r.re_edge in
      Printf.bprintf buf "%s -> %s (lat %d%s): %s\n" (cell_label m.dfg e.src)
        (cell_label m.dfg e.dst)
        (Mapping.edge_length m e)
        (if e.dist > 0 then Printf.sprintf ", dist %d" e.dist else "")
        (String.concat " > "
           (List.map
              (fun (res, _) -> (Plaid_arch.Arch.resource arch res).rname)
              r.re_path))
    )
    m.routes;
  Buffer.contents buf

let pp fmt m =
  Format.fprintf fmt "%s@.%s" (fabric_view m) (route_view m)
