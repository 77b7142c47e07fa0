open Plaid_obs

let report_json ~unit r =
  Json.Obj
    [ ("unit", Json.Str unit);
      ("categories", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r));
      ("total", Json.Num (Report.total r)) ]

let area_json arch ~spm_kb =
  Json.Obj
    [ ("fabric", report_json ~unit:"um2" (Area.fabric arch));
      ("spm_um2", Json.Num (Area.spm ~kb:spm_kb));
      ("system_um2", Json.Num (Area.system arch ~spm_kb)) ]
