type t = (string * float) list

let total t = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 t

let get t k = match List.assoc_opt k t with Some v -> v | None -> 0.0

let share t k =
  let s = total t in
  if s = 0.0 then 0.0 else get t k /. s

let pp ~unit fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (k, v) -> Format.fprintf fmt "%-16s %10.1f %s (%4.1f%%)@," k v unit (100.0 *. share t k))
    t;
  Format.fprintf fmt "%-16s %10.1f %s@]" "total" (total t) unit

type category = Compute | Compute_config | Comm | Comm_config | Regs

let names = [| "compute"; "compute_config"; "comm"; "comm_config"; "regs" |]

let index = function
  | Compute -> 0
  | Compute_config -> 1
  | Comm -> 2
  | Comm_config -> 3
  | Regs -> 4

let category_of_name = function
  | "compute" -> Compute
  | "compute_config" -> Compute_config
  | "comm" -> Comm
  | "comm_config" -> Comm_config
  | "regs" -> Regs
  | k -> invalid_arg ("Report.category_of_name: " ^ k)

type acc = { sums : float array; seen : bool array }

let acc () = { sums = Array.make 5 0.0; seen = Array.make 5 false }

let add a c v =
  let i = index c in
  a.sums.(i) <- a.sums.(i) +. v;
  a.seen.(i) <- true

let to_report a =
  List.filter_map
    (fun i -> if a.seen.(i) then Some (names.(i), a.sums.(i)) else None)
    [ 0; 1; 2; 3; 4 ]
