open Plaid_ir

let compatible_fus mrrg g ~node ~slot =
  let arch = Mrrg.arch mrrg in
  let op = (Dfg.node g node).op in
  Array.to_list arch.Plaid_arch.Arch.fus
  |> List.filter (fun fu -> Plaid_arch.Arch.fu_supports arch fu op && Mrrg.fu_free mrrg ~fu ~slot)

let manhattan (r1, c1) (r2, c2) = abs (r1 - r2) + abs (c1 - c2)

let initial_place mrrg g ~times ~rng =
  let arch = Mrrg.arch mrrg in
  let ii = Mrrg.ii mrrg in
  let n = Dfg.n_nodes g in
  let place = Array.make n (-1) in
  let ok = ref true in
  List.iter
    (fun v ->
      if !ok then begin
        let slot = Schedule.slot ~ii times.(v) in
        match compatible_fus mrrg g ~node:v ~slot with
        | [] -> ok := false
        | fus ->
          (* prefer FUs near every already-placed neighbour — predecessors
             and successors, loop-carried edges included, so recurrence
             rings close locally; compute nodes stay off the scarce
             memory-capable FUs; break ties randomly for diversity *)
          let memory_node =
            let op = (Dfg.node g v).op in
            Op.is_memory op || op = Op.Input
          in
          let score fu =
            let r = Plaid_arch.Arch.resource arch fu in
            let tile = r.tile in
            let toward acc other =
              if place.(other) >= 0 then
                acc + manhattan tile (Plaid_arch.Arch.resource arch place.(other)).tile
              else acc
            in
            let acc =
              List.fold_left (fun acc (e : Dfg.edge) -> toward acc e.src) 0 (Dfg.preds g v)
            in
            let acc =
              List.fold_left (fun acc (e : Dfg.edge) -> toward acc e.dst) acc (Dfg.succs g v)
            in
            let alsu_penalty =
              match r.kind with
              | Plaid_arch.Arch.Fu c when c.Plaid_arch.Arch.fu_memory && not memory_node -> 50
              | _ -> 0
            in
            acc + alsu_penalty
          in
          let scored = List.map (fun fu -> (score fu, Plaid_util.Rng.int rng 1000, fu)) fus in
          let _, _, best = List.fold_left min (List.hd scored) (List.tl scored) in
          place.(v) <- best;
          Mrrg.place_node mrrg ~node:v ~fu:best ~slot
      end)
    (Dfg.topo_order g);
  if !ok then Some place else None
