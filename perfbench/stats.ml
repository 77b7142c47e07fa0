(* Summary statistics for benchmark samples.

   Percentiles use the nearest-rank rule (the same rule as
   [Plaid_obs.Metrics.percentile]).  A tail percentile means something
   only when enough samples lie beyond it: the benchmark flags a tail with
   fewer than [min_beyond] samples beyond its rank, and prints the sample
   count next to every percentile. *)

let min_beyond = 10

(* 1-based nearest rank; the epsilon keeps e.g. 99.9% of 10000 at rank
   9990 despite rounding in [p /. 100]. *)
let rank ~n ~p =
  let p = Float.max 0.0 (Float.min 100.0 p) in
  max 1 (min n (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank ~n ~p - 1)

let tail_supported ~n ~p = n - rank ~n ~p >= min_beyond

type summary = {
  n : int;
  p50 : float;
  tail_p : float;  (** the tail percentile reported *)
  tail : float;
}

let summarize ~tail_p samples =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  { n = Array.length sorted; p50 = percentile sorted 50.0; tail_p;
    tail = percentile sorted tail_p }

(* The sample count behind a summary, flagging an unsupported tail. *)
let describe s =
  Printf.sprintf "%d (p50, p%g%s)" s.n s.tail_p
    (if tail_supported ~n:s.n ~p:s.tail_p then "" else "; under 10 samples beyond the tail")

let median samples = (summarize ~tail_p:50.0 samples).p50

(* [best_times samples] replaces the time of each [(op, time)] sample by
   its operation's fastest repeat, so an op issued more often still weighs
   more; it also returns the number of distinct ops.  Contention from other
   work on a shared host only ever adds time, and it drifts over minutes,
   so the fastest of many repeats moves with the program far more than
   with the host. *)
let best_times samples =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (op, t) ->
      match Hashtbl.find_opt tbl op with
      | None -> Hashtbl.replace tbl op (t, 1)
      | Some (b, n) -> Hashtbl.replace tbl op (Float.min b t, n + 1))
    samples;
  (Hashtbl.fold (fun _ (b, n) acc -> List.init n (fun _ -> b) @ acc) tbl [], Hashtbl.length tbl)

(* The mean of the slowest [share] of [xs], at least one value.  Unlike a
   single high percentile it does not jump when two ops near the rank
   trade places. *)
let tail_mean ~share xs =
  let sorted = Array.of_list xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.tail_mean: no values";
  let k = max 1 (int_of_float (Float.ceil ((share *. float_of_int n) -. 1e-9))) in
  Array.fold_left ( +. ) 0.0 (Array.sub sorted (n - k) k) /. float_of_int k

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* An unmapped pair is charged at the fabric's configuration-memory depth
   (the largest II the fabric can hold), so a failure raises the geomean
   instead of silently dropping out of it. *)
let charged_ii ~depth = function Some ii -> ii | None -> depth

let ii_geomean outcomes =
  geomean (List.map (fun (ii, depth) -> float_of_int (charged_ii ~depth ii)) outcomes)
