(* Tests for the architecture description language and fabric construction
   from specs. *)

let check = Alcotest.check

let test_mesh_spec () =
  match
    Plaid_arch.Adl.of_string
      {|# comment
        family mesh
        rows 3
        cols 5
        regs_per_pe 2
        mem_cols 2|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" (Format.asprintf "%a" Plaid_arch.Adl.pp_error e)
  | Ok (Plaid_arch.Adl.Mesh_spec p) ->
    check Alcotest.int "rows" 3 p.Plaid_arch.Mesh.rows;
    check Alcotest.int "cols" 5 p.Plaid_arch.Mesh.cols;
    check Alcotest.int "regs" 2 p.Plaid_arch.Mesh.regs_per_pe;
    check Alcotest.int "mem cols" 2 p.Plaid_arch.Mesh.mem_cols;
    (* defaults survive *)
    check Alcotest.int "entries default" 16 p.Plaid_arch.Mesh.config_entries
  | Ok _ -> Alcotest.fail "expected mesh spec"

let test_plaid_spec () =
  match Plaid_arch.Adl.of_string "family plaid\nrows 4\ncols 2\nbypass false" with
  | Ok (Plaid_arch.Adl.Plaid_spec { rows; cols; bypass }) ->
    check Alcotest.int "rows" 4 rows;
    check Alcotest.int "cols" 2 cols;
    check Alcotest.bool "bypass" false bypass
  | Ok _ -> Alcotest.fail "expected plaid spec"
  | Error e -> Alcotest.failf "parse failed: %s" e.msg

let test_unknown_key_rejected () =
  match Plaid_arch.Adl.of_string "family mesh\nwarp_speed 9" with
  | Error e -> check Alcotest.int "line" 2 e.Plaid_arch.Adl.line
  | Ok _ -> Alcotest.fail "expected rejection"

let test_missing_family_rejected () =
  match Plaid_arch.Adl.of_string "rows 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection"

let test_bad_value_rejected () =
  match Plaid_arch.Adl.of_string "family mesh\nrows banana" with
  | Error e -> check Alcotest.int "line" 2 e.Plaid_arch.Adl.line
  | Ok _ -> Alcotest.fail "expected rejection"

let test_fabric_construction () =
  match Plaid_arch.Adl.of_string "family plaid\nrows 1\ncols 2" with
  | Error e -> Alcotest.failf "parse: %s" e.msg
  | Ok spec ->
    let built = Plaid_core.Fabrics.of_spec spec ~name:"tiny" in
    (match built.Plaid_core.Fabrics.pcu with
    | Some pcu -> check Alcotest.int "8 FUs" 8 (Plaid_core.Pcu.n_fus pcu)
    | None -> Alcotest.fail "expected pcu descriptor")

(* The named-fabric table: CLI names round-trip, and every fabric is found
   again by the name its built architecture carries (what a mapfile
   records), so `plaidc run` resolves every fabric `plaidc map` saves. *)
let test_fabric_table () =
  let module F = Plaid_core.Fabrics in
  check Alcotest.(list string) "table order"
    [ "st"; "st6"; "stml"; "plaid"; "plaid3"; "plaidml" ] F.names;
  List.iter
    (fun f ->
      check Alcotest.bool (F.name f ^ ": of_name") true (F.of_name (F.name f) = Some f);
      let b = F.build f in
      let aname = b.arch.Plaid_arch.Arch.name in
      match F.of_arch_name aname with
      | None -> Alcotest.failf "%s: %s does not resolve" (F.name f) aname
      | Some b' ->
        check Alcotest.string (F.name f ^ ": of_arch_name") aname
          b'.arch.Plaid_arch.Arch.name;
        check Alcotest.bool (F.name f ^ ": same pcu view") (Option.is_some b.pcu)
          (Option.is_some b'.pcu))
    F.all;
  check Alcotest.bool "unknown name" true (F.of_name "nosuch" = None);
  check Alcotest.bool "unknown arch name" true (F.of_arch_name "nosuch" = None)

let test_example_files_build () =
  let dir = "../../../examples/archs" in
  let dir = if Sys.file_exists dir then dir else "examples/archs" in
  if Sys.file_exists dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".adl")
    |> List.iter (fun f ->
           match Plaid_core.Fabrics.of_file (Filename.concat dir f) with
           | Error e -> Alcotest.failf "%s: %s" f e
           | Ok built ->
             check Alcotest.bool f true
               (Array.length built.Plaid_core.Fabrics.arch.Plaid_arch.Arch.fus > 0))

let test_custom_fabric_maps () =
  match Plaid_arch.Adl.of_string "family plaid\nrows 2\ncols 3" with
  | Error e -> Alcotest.failf "parse: %s" e.msg
  | Ok spec -> (
    let built = Plaid_core.Fabrics.of_spec spec ~name:"p2x3" in
    let pcu = Option.get built.Plaid_core.Fabrics.pcu in
    let g = Plaid_workloads.Suite.dfg (Plaid_workloads.Suite.find "dwconv") in
    match
      (Plaid_core.Hier_mapper.map ~params:Plaid_core.Hier_mapper.quick ~plaid:pcu ~seed:3 g)
        .Plaid_core.Hier_mapper.mapping
    with
    | None -> Alcotest.fail "custom fabric failed to map dwconv"
    | Some m -> (
      match Plaid_mapping.Mapping.validate m with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg))

let suites =
  [
    ( "adl",
      [
        Alcotest.test_case "mesh spec" `Quick test_mesh_spec;
        Alcotest.test_case "plaid spec" `Quick test_plaid_spec;
        Alcotest.test_case "unknown key" `Quick test_unknown_key_rejected;
        Alcotest.test_case "missing family" `Quick test_missing_family_rejected;
        Alcotest.test_case "bad value" `Quick test_bad_value_rejected;
        Alcotest.test_case "fabric construction" `Quick test_fabric_construction;
        Alcotest.test_case "fabric table" `Quick test_fabric_table;
        Alcotest.test_case "example files" `Quick test_example_files_build;
        Alcotest.test_case "custom fabric maps" `Slow test_custom_fabric_maps;
      ] );
  ]
