open Plaid_ir

let slot ~ii t = ((t mod ii) + ii) mod ii

let memory_class op = Op.is_memory op || op = Op.Input

(* Lower bound for t(dst) given t(src).  [lat] spaces same-iteration edges
   ([lat_for] refines it per edge); loop-carried edges always use unit
   latency unless [lat_for] says otherwise. *)
let edge_lb ?(lat = 1) ?lat_for times ii (e : Dfg.edge) =
  let l =
    match lat_for with
    | Some f -> f e
    | None -> if e.dist = 0 then lat else 1
  in
  times.(e.src) + l - (e.dist * ii)

let constraints_ok g times ii =
  Array.for_all (fun (e : Dfg.edge) -> times.(e.dst) >= edge_lb times ii e) g.Dfg.edges

(* Fixpoint of the lower-bound constraints starting from [times]. *)
let relax ?(lat = 1) ?lat_for g times ii =
  let changed = ref true in
  let guard = ref 0 in
  let n = Dfg.n_nodes g in
  let bound = 4 * (n + 2) in
  while !changed && !guard < bound do
    changed := false;
    incr guard;
    Array.iter
      (fun (e : Dfg.edge) ->
        let lb = edge_lb ~lat ?lat_for times ii e in
        if times.(e.dst) < lb then begin
          times.(e.dst) <- lb;
          changed := true
        end)
      g.Dfg.edges
  done;
  if !changed then None (* still relaxing after the bound: II < RecMII *)
  else Some times

let compute ?(lat = 1) ?lat_for g ~ii ~cap =
  match relax ~lat ?lat_for g (Array.make (Dfg.n_nodes g) 0) ii with
  | None -> None
  | Some times ->
    (* Smooth modulo-slot pressure: bump the most movable over-pressure
       nodes one cycle later and re-relax, a bounded number of rounds. *)
    let n = Dfg.n_nodes g in
    let total = Array.make ii 0 and mem = Array.make ii 0 in
    let recount () =
      Array.fill total 0 ii 0;
      Array.fill mem 0 ii 0;
      Array.iteri
        (fun i t ->
          let s = slot ~ii t in
          total.(s) <- total.(s) + 1;
          if memory_class (Dfg.node g i).op then mem.(s) <- mem.(s) + 1)
        times
    in
    let over () =
      recount ();
      let acc = ref 0 in
      for s = 0 to ii - 1 do
        acc := !acc + max 0 (total.(s) - cap.Analysis.total_slots)
               + max 0 (mem.(s) - cap.Analysis.memory_slots)
      done;
      !acc
    in
    let rounds = ref 0 in
    let ok = ref (over () = 0) in
    while (not !ok) && !rounds < 8 * n do
      incr rounds;
      (* find one node in an over-pressured slot, preferring nodes with no
         same-iteration successors (cheap to move). *)
      recount ();
      let candidate = ref None in
      Array.iteri
        (fun i t ->
          if !candidate = None then begin
            let s = slot ~ii t in
            let memo = memory_class (Dfg.node g i).op in
            let pressured =
              total.(s) > cap.Analysis.total_slots
              || (memo && mem.(s) > cap.Analysis.memory_slots)
            in
            if pressured then candidate := Some i
          end)
        times;
      (match !candidate with
      | None -> ok := true
      | Some i -> (
        times.(i) <- times.(i) + 1;
        match relax ~lat ?lat_for g times ii with
        | None -> rounds := max_int  (* diverged; give up *)
        | Some _ -> if over () = 0 then ok := true))
    done;
    if !ok && constraints_ok g times ii then Some times else None

let slack g ~times ~ii ~node =
  let lo = ref min_int and hi = ref max_int in
  (* incoming edges bound this node from below; outgoing from above. *)
  List.iter
    (fun (e : Dfg.edge) ->
      let b = times.(e.src) + 1 - (e.dist * ii) in
      if e.src <> node && b > !lo then lo := b)
    (Dfg.preds g node);
  List.iter
    (fun (e : Dfg.edge) ->
      let b = times.(e.dst) - 1 + (e.dist * ii) in
      if e.dst <> node && b < !hi then hi := b)
    (Dfg.succs g node);
  (* a self-loop (accumulator) pins nothing: dist*ii >= 1 always holds when
     ii >= RecMII, independent of the node's absolute time. *)
  let lo = if !lo = min_int then 0 else !lo in
  let hi = if !hi = max_int then lo + (4 * ii) else !hi in
  (lo, if hi > lo then hi else lo)
