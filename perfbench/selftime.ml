(* Per-layer self time from recorded spans.

   A span's self time is its duration minus the part of its interval that
   its direct child spans cover.  Spans nest per thread (one Chrome trace
   [tid] per domain), so each thread is walked on its own with a stack.
   Every span is charged to a layer: the benchmark's own spans are named
   "<layer>.<stage>" under category "bench"; the program's spans are
   charged by category. *)

type span = {
  name : string;
  cat : string;
  tid : int;
  ts : float;  (** start, microseconds *)
  dur : float;  (** microseconds *)
}

let of_trace json =
  List.filter_map
    (fun ev ->
      let open Plaid_obs.Json in
      let field k = Option.bind (member k ev) num in
      match (member "name" ev, member "cat" ev, field "tid", field "ts", field "dur") with
      | Some (Str name), Some (Str cat), Some tid, Some ts, Some dur ->
        Some { name; cat; tid = int_of_float tid; ts; dur }
      | _ -> None (* instants carry no duration *))
    (Option.fold ~none:[] ~some:Plaid_obs.Json.to_list
       (Plaid_obs.Json.member "traceEvents" json))

let layer_of s =
  match s.cat with
  | "bench" -> (
    match String.index_opt s.name '.' with
    | Some i -> String.sub s.name 0 i
    | None -> s.name)
  | "driver" | "pf" | "sa" -> "mapping"
  | "pool" -> "util"
  | c -> c

let stop s = s.ts +. s.dur

(* Returns every span with its self time, in input order per thread. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.fold
    (fun _ group acc ->
      (* parents first: earlier start, and on a tie the longer span *)
      let sorted =
        List.stable_sort
          (fun a b -> match Float.compare a.ts b.ts with 0 -> Float.compare b.dur a.dur | c -> c)
          group
      in
      (* stack entries: span, covered-by-children so far, end of coverage *)
      let stack = ref [] in
      let out = ref acc in
      let close (s, covered, _) = out := (s, Float.max 0.0 (s.dur -. !covered)) :: !out in
      List.iter
        (fun s ->
          let rec unwind () =
            match !stack with
            | ((p, _, _) as top) :: rest when s.ts >= stop p ->
              close top;
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (p, covered, cov_end) :: _ ->
            (* union of children clipped to the parent's interval *)
            let lo = Float.max s.ts !cov_end and hi = Float.min (stop s) (stop p) in
            if hi > lo then covered := !covered +. (hi -. lo);
            cov_end := Float.max !cov_end hi
          | [] -> ());
          stack := (s, ref 0.0, ref s.ts) :: !stack)
        sorted;
      List.iter close !stack;
      !out)
    by_tid []

(* Time during which at least one span with this name was open, summed
   over threads: nested or re-entered spans (a pool worker running another
   task inside a waiting one) count once. *)
let covered ~cat spans name =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.cat = cat && s.name = name then
        Hashtbl.replace by_tid s.tid
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.fold
    (fun _ group acc ->
      let sorted = List.sort (fun a b -> Float.compare a.ts b.ts) group in
      let total, _ =
        List.fold_left
          (fun (total, reach) s ->
            let lo = Float.max s.ts reach in
            (total +. Float.max 0.0 (stop s -. lo), Float.max reach (stop s)))
          (0.0, neg_infinity) sorted
      in
      acc +. total)
    by_tid 0.0

let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s in
      Hashtbl.replace tbl l (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [])
