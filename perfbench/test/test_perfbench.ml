(* Tests for the benchmark's own helpers: the percentile rule, span
   self-time, seeded draws, and the charged II geomean. *)

open Perfbench

let feq = Alcotest.float 1e-9

let test_percentile () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50" 50.0 (Stats.percentile sorted 50.0);
  Alcotest.check feq "p99" 99.0 (Stats.percentile sorted 99.0);
  Alcotest.check feq "p100" 100.0 (Stats.percentile sorted 100.0);
  Alcotest.check feq "p0 is the minimum" 1.0 (Stats.percentile sorted 0.0)

let test_tail_rule () =
  (* a tail percentile needs at least ten samples beyond its rank *)
  let supported n p = Stats.tail_supported ~n ~p in
  Alcotest.(check bool) "p99 of 1000" true (supported 1000 99.0);
  Alcotest.(check bool) "p99 of 999" false (supported 999 99.0);
  Alcotest.(check bool) "p99.9 of 10000" true (supported 10000 99.9);
  Alcotest.(check bool) "p99.9 of 9999" false (supported 9999 99.9);
  Alcotest.(check bool) "p90 of 100" true (supported 100 90.0);
  let s = Stats.summarize ~tail_p:99.0 (List.init 200 float_of_int) in
  Alcotest.(check int) "sample count" 200 s.n;
  Alcotest.check feq "median" 99.0 s.p50;
  Alcotest.check feq "tail" 197.0 s.tail;
  Alcotest.(check string) "unsupported tail is flagged"
    "200 (p50, p99; under 10 samples beyond the tail)" (Stats.describe s)

let test_best () =
  let samples = [ ("a", 3.0); ("b", 10.0); ("a", 1.0); ("a", 2.0); ("b", 8.0) ] in
  let times, ops = Stats.best_times samples in
  Alcotest.(check int) "distinct ops" 2 ops;
  Alcotest.(check (list feq)) "each sample at its op's best" [ 1.0; 1.0; 1.0; 8.0; 8.0 ]
    (List.sort Float.compare times);
  Alcotest.check feq "slowest fifth" 8.0 (Stats.tail_mean ~share:0.2 times);
  Alcotest.check feq "slowest half, rounded up" (17.0 /. 3.0) (Stats.tail_mean ~share:0.5 times);
  Alcotest.check feq "at least one value" 8.0 (Stats.tail_mean ~share:0.0 times)

let test_ii_geomean_charge () =
  Alcotest.(check int) "mapped pair keeps its II" 3 (Stats.charged_ii ~depth:16 (Some 3));
  Alcotest.(check int) "unmapped pair charged at depth" 16 (Stats.charged_ii ~depth:16 None);
  Alcotest.check feq "a failure raises the geomean" (sqrt 32.0)
    (Stats.ii_geomean [ (Some 2, 16); (None, 16) ]);
  Alcotest.check feq "all mapped" 4.0 (Stats.ii_geomean [ (Some 2, 16); (Some 8, 16) ])

let span ?(tid = 0) ?(cat = "bench") name ts dur = { Selftime.name; cat; tid; ts; dur }

let self_of name results =
  List.fold_left
    (fun acc ((s : Selftime.span), self) -> if s.name = name then acc +. self else acc)
    0.0 results

let test_self_time () =
  let spans =
    [ span "bench.pair" 0.0 100.0; span "ir.lower" 10.0 30.0; span "mapping.best_of" 50.0 20.0;
      span ~cat:"driver" "driver.best_of" 52.0 18.0; span ~cat:"sa" "sa.run_once" 55.0 5.0;
      (* another domain's spans never nest under this one's *)
      span ~tid:1 "ir.lower" 5.0 90.0 ]
  in
  let r = Selftime.self_times spans in
  Alcotest.check feq "parent minus children" 50.0 (self_of "bench.pair" r);
  Alcotest.check feq "leaf on two threads" 120.0 (self_of "ir.lower" r);
  Alcotest.check feq "bench span minus program span" 2.0 (self_of "mapping.best_of" r);
  Alcotest.check feq "program span minus nested" 13.0 (self_of "driver.best_of" r);
  let layers = Selftime.by_layer spans in
  Alcotest.check feq "mapping layer" 20.0 (List.assoc "mapping" layers);
  Alcotest.check feq "nothing lost" 190.0 (List.fold_left (fun a (_, v) -> a +. v) 0.0 layers)

let test_self_time_clips () =
  (* a child that ends after its parent (clock rounding) only covers the
     part inside the parent *)
  let spans = [ span "a.x" 0.0 10.0; span "b.y" 2.0 2.0; span "b.w" 8.0 5.0 ] in
  let r = Selftime.self_times spans in
  Alcotest.check feq "clipped" 6.0 (self_of "a.x" r);
  Alcotest.check feq "child keeps its duration" 5.0 (self_of "b.w" r)

let test_zipf_seeded () =
  let draw seed = Draw.zipf ~seed ~s:1.0 ~n:59 ~len:2000 in
  let count d r = Array.fold_left (fun acc x -> if x = r then acc + 1 else acc) 0 d in
  let ranks = List.init 59 Fun.id in
  Alcotest.(check (array int)) "same seed, same draws" (draw 7) (draw 7);
  Alcotest.(check bool) "another seed, another order" true (draw 7 <> draw 8);
  Alcotest.(check int) "length" 2000 (Array.length (draw 7));
  Alcotest.(check bool) "same mix for every seed" true
    (List.for_all (fun r -> count (draw 7) r = count (draw 8) r) ranks);
  let w = Draw.zipf_weights ~s:1.0 59 in
  Alcotest.(check bool) "counts follow the weights" true
    (List.for_all
       (fun r -> Float.abs (float_of_int (count (draw 7) r) -. (2000.0 *. w.(r))) < 1.0)
       ranks)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail rule and sample counts" `Quick test_tail_rule;
          Alcotest.test_case "best repeat per op" `Quick test_best;
          Alcotest.test_case "ii geomean charges unmapped pairs" `Quick test_ii_geomean_charge ] );
      ( "selftime",
        [ Alcotest.test_case "nested spans" `Quick test_self_time;
          Alcotest.test_case "child past its parent's end" `Quick test_self_time_clips ] );
      ("draw", [ Alcotest.test_case "zipf determinism by seed" `Quick test_zipf_seeded ]) ]
