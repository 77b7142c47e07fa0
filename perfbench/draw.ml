(* Seeded input draws.  Every draw goes through [Plaid_util.Rng]
   (splitmix64), so a seed names the same inputs on every platform. *)

(* Zipf(s) probabilities of ranks 1..n. *)
let zipf_weights ~s n =
  if n < 1 then invalid_arg "Draw.zipf_weights: need at least one rank";
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

(* [zipf ~seed ~s ~n ~len] is [len] rank indices in [0, n), index 0 the
   most popular, whose counts follow Zipf(s) as closely as whole numbers
   allow (largest remainders), in an order drawn from [seed].  Every seed
   gives the same mix; only the order differs. *)
let zipf ~seed ~s ~n ~len =
  let quota = Array.map (fun p -> p *. float_of_int len) (zipf_weights ~s n) in
  let counts = Array.map int_of_float quota in
  let short = len - Array.fold_left ( + ) 0 counts in
  let remainder r = quota.(r) -. float_of_int counts.(r) in
  List.init n Fun.id
  |> List.stable_sort (fun a b -> Float.compare (remainder b) (remainder a))
  |> List.iteri (fun i r -> if i < short then counts.(r) <- counts.(r) + 1);
  let draws = Array.concat (Array.to_list (Array.mapi (fun r c -> Array.make c r) counts)) in
  Plaid_util.Rng.shuffle (Plaid_util.Rng.create seed) draws;
  draws

let shuffled ~seed xs =
  let a = Array.of_list xs in
  Plaid_util.Rng.shuffle (Plaid_util.Rng.create seed) a;
  Array.to_list a
