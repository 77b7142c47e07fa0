type built = { arch : Plaid_arch.Arch.t; pcu : Pcu.t option }

let mesh arch = { arch; pcu = None }

let plaid pcu = { arch = pcu.Pcu.arch; pcu = Some pcu }

let of_spec spec ~name =
  match spec with
  | Plaid_arch.Adl.Mesh_spec p -> mesh (Plaid_arch.Mesh.build p ~name)
  | Plaid_arch.Adl.Plaid_spec { rows; cols; bypass } ->
    plaid (Pcu.build ~bypass ~rows ~cols ~name ())

let of_file path =
  match Plaid_arch.Adl.of_file path with
  | exception Sys_error msg -> Error msg
  | Error e -> Error (Format.asprintf "%s: %a" path Plaid_arch.Adl.pp_error e)
  | Ok spec ->
    let name = Filename.remove_extension (Filename.basename path) in
    Ok (of_spec spec ~name)

type fabric = St | St6 | St_ml | Plaid | Plaid3 | Plaid_ml

(* Each entry's CLI name and the name its built architecture carries,
   which is what a mapfile records. *)
let table =
  [ (St, ("st", "st_4x4")); (St6, ("st6", "st_6x6")); (St_ml, ("stml", "st_ml_4x4"));
    (Plaid, ("plaid", "plaid_2x2")); (Plaid3, ("plaid3", "plaid_3x3"));
    (Plaid_ml, ("plaidml", "plaid_ml_2x2")) ]

let all = List.map fst table

let name f = fst (List.assq f table)

let names = List.map name all

let of_name n = List.find_map (fun (f, (m, _)) -> if m = n then Some f else None) table

let build f =
  let name = snd (List.assq f table) in
  match f with
  | St -> mesh (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name)
  | St6 -> mesh (Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_6x6 ~name)
  | St_ml -> mesh (Specialize.st_ml ())
  | Plaid -> plaid (Pcu.build ~rows:2 ~cols:2 ~name ())
  | Plaid3 -> plaid (Pcu.build ~rows:3 ~cols:3 ~name ())
  | Plaid_ml -> plaid (Specialize.plaid_ml ())

let of_arch_name n =
  List.find_map (fun (f, (_, a)) -> if a = n then Some (build f) else None) table
