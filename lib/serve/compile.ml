type effort = Default | Quick

type mapper =
  | Hier of Plaid_core.Pcu.t * effort
  | Best_of of effort
  | Pf
  | Sa

let for_fabric ?(effort = Default) = function
  | Some plaid -> Hier (plaid, effort)
  | None -> Best_of effort

let effort_name = function Default -> "default" | Quick -> "quick"

let name = function
  | Hier (_, e) -> "hier:" ^ effort_name e
  | Best_of e -> "best_of:pf+sa:" ^ effort_name e
  | Pf -> "driver:pf:default"
  | Sa -> "driver:sa:default"

let run ?pool mapper ~arch ~dfg ~seed =
  let open Plaid_mapping in
  let driver algo = (Driver.map ?pool ~algo ~arch ~dfg ~seed ()).Driver.mapping in
  match mapper with
  | Hier (plaid, e) ->
    let params = Plaid_core.Hier_mapper.(match e with Default -> default | Quick -> quick) in
    (Plaid_core.Hier_mapper.map ~params ~plaid ~seed dfg).Plaid_core.Hier_mapper.mapping
  | Best_of e ->
    let algos =
      match e with
      | Default -> [ Driver.Pf Pathfinder.default; Driver.Sa Anneal.default ]
      | Quick -> [ Driver.Pf Pathfinder.quick; Driver.Sa Anneal.quick ]
    in
    (Driver.best_of ?pool ~algos ~arch ~dfg ~seed ()).Driver.mapping
  | Pf -> driver (Driver.Pf Pathfinder.default)
  | Sa -> driver (Driver.Sa Anneal.default)

let key mapper ~arch ~dfg ~seed = Fingerprint.key ~dfg ~arch ~mapper:(name mapper) ~seed

(* Negative results (the mapper found nothing) are stored as the empty
   blob: deterministic failures are as cacheable as successes. *)
let lookup cache ~key compute =
  Cache.get_or_compute cache ~key (fun () ->
      Some (match compute () with None -> "" | Some m -> Plaid_mapping.Mapfile.to_string m))

(* The value returned is always the one parsed back from the blob, so a cold
   and a warm cache hand callers structurally identical mappings, and any
   round-trip inexactness shows up at once (the determinism gate compares
   cached runs against cache-free ones byte for byte).  A blob that fails to
   parse, which the store's checksums make unreachable short of a format
   bug, falls back to a fresh compute. *)
let map ?cache ?pool ?compute mapper ~arch ~dfg ~seed =
  let compute =
    match compute with Some f -> f | None -> fun () -> run ?pool mapper ~arch ~dfg ~seed
  in
  match cache with
  | None -> compute ()
  | Some cache -> (
    match fst (lookup cache ~key:(key mapper ~arch ~dfg ~seed) compute) with
    | None | Some "" -> None
    | Some b -> (
      let resolve n = if n = arch.Plaid_arch.Arch.name then Some arch else None in
      match Plaid_mapping.Mapfile.of_string ~resolve b with
      | Ok m -> Some m
      | Error _ -> compute ()))
