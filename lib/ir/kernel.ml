type index = { scale : int; shift : int }

type expr =
  | Iconst of int
  | Load of string * index
  | Param of string
  | Temp of string
  | Carry of string
  | Unop of Op.t * expr
  | Binop of Op.t * expr * expr
  | Ternop of Op.t * expr * expr * expr

type stmt =
  | Let of string * expr
  | Set_carry of string * expr
  | Store of string * index * expr

type t = {
  name : string;
  trip : int;
  body : stmt list;
  carries : (string * int) list;
}

let idx ?(shift = 0) scale = { scale; shift }

let fixed shift = { scale = 0; shift }

type memory = (string, int array) Hashtbl.t

let element_of mem kname array i =
  match Hashtbl.find_opt mem array with
  | None -> invalid_arg (Printf.sprintf "Kernel %s: unknown array %s" kname array)
  | Some a ->
    if i < 0 || i >= Array.length a then
      invalid_arg (Printf.sprintf "Kernel %s: %s[%d] out of bounds (%d)" kname array i (Array.length a))
    else a

let interpret k ~params mem =
  let carries = Hashtbl.create 8 in
  List.iter (fun (name, v) -> Hashtbl.replace carries name v) k.carries;
  let param name =
    match List.assoc_opt name params with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Kernel %s: missing param %s" k.name name)
  in
  for i = 0 to k.trip - 1 do
    let temps = Hashtbl.create 8 in
    let addr (ix : index) = (ix.scale * i) + ix.shift in
    let rec eval = function
      | Iconst c -> c
      | Load (arr, ix) ->
        let j = addr ix in
        (element_of mem k.name arr j).(j)
      | Param name -> param name
      | Temp name -> (
        match Hashtbl.find_opt temps name with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Kernel %s: temp %s read before set" k.name name))
      | Carry name -> (
        match Hashtbl.find_opt carries name with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Kernel %s: unknown carry %s" k.name name))
      | Unop (op, a) -> Op.eval op [| eval a |]
      | Binop (op, a, b) -> Op.eval op [| eval a; eval b |]
      | Ternop (op, a, b, c) -> Op.eval op [| eval a; eval b; eval c |]
    in
    (* Carry updates take effect at the iteration boundary, like registers. *)
    let staged = ref [] in
    List.iter
      (fun stmt ->
        match stmt with
        | Let (name, e) -> Hashtbl.replace temps name (eval e)
        | Set_carry (name, e) ->
          if not (Hashtbl.mem carries name) then
            invalid_arg (Printf.sprintf "Kernel %s: Set_carry of undeclared %s" k.name name);
          staged := (name, eval e) :: !staged
        | Store (arr, ix, e) ->
          let v = eval e in
          let j = addr ix in
          (element_of mem k.name arr j).(j) <- v)
      k.body;
    List.iter (fun (name, v) -> Hashtbl.replace carries name v) (List.rev !staged)
  done

(* Extent of every array access across all iterations, for allocation. *)
let array_extents k =
  let tbl = Hashtbl.create 8 in
  let touch arr (ix : index) =
    let hi = Dfg.extent ~offset:ix.shift ~stride:ix.scale ~trip:k.trip in
    let prev = try Hashtbl.find tbl arr with Not_found -> 0 in
    Hashtbl.replace tbl arr (max prev hi)
  in
  let rec walk = function
    | Iconst _ | Param _ | Temp _ | Carry _ -> ()
    | Load (arr, ix) -> touch arr ix
    | Unop (_, a) -> walk a
    | Binop (_, a, b) -> walk a; walk b
    | Ternop (_, a, b, c) -> walk a; walk b; walk c
  in
  List.iter
    (function
      | Let (_, e) | Set_carry (_, e) -> walk e
      | Store (arr, ix, e) -> touch arr ix; walk e)
    k.body;
  tbl

let memory_for k ~seed : memory =
  let rng = Plaid_util.Rng.create seed in
  let mem : memory = Hashtbl.create 8 in
  let extents = array_extents k in
  Hashtbl.iter
    (fun arr n ->
      let a = Array.init n (fun _ -> Plaid_util.Rng.int rng 256 - 128) in
      Hashtbl.replace mem arr a)
    extents;
  mem
