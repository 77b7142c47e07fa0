(* The schema tag guards everything a key must be sensitive to that is not
   captured by the serialized components: mapper algorithm revisions, blob
   format changes, canonicalization changes.  Grep for "fp1" before
   changing mapper behaviour. *)
let schema = "fp1"

let version = Printf.sprintf "1.1+%s+%s" schema Plaid_mapping.Mapfile.version

let digest_hex s = Digest.to_hex (Digest.string s)

let dfg g = digest_hex (String.concat "\n" (Plaid_mapping.Mapfile.dfg_to_lines g))

let arch = Plaid_arch.Arch.fingerprint

let key ~dfg:g ~arch:a ~mapper ~seed =
  digest_hex
    (String.concat "\n"
       [ "plaid-cache-key"; version; "dfg " ^ dfg g; "arch " ^ arch a;
         "mapper " ^ mapper; "seed " ^ string_of_int seed ])
