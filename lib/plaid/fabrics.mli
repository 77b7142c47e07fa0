(** Construct fabrics from ADL specs (the layer that can see both the mesh
    builders and the PCU builder), and the one table of the six named
    fabrics the paper's evaluation compares (Figs. 12–19).  [plaidc],
    [Plaid_serve.Service] and [Plaid_exp.Ctx] all build their named
    fabrics from this table. *)

type built = {
  arch : Plaid_arch.Arch.t;
  pcu : Pcu.t option;  (** present for Plaid-family fabrics *)
}

val of_spec : Plaid_arch.Adl.spec -> name:string -> built

val of_file : string -> (built, string) result
(** Read, parse and build; the architecture name is the file basename.  An
    unreadable or malformed file is an [Error] naming the path. *)

(** {1 Named fabrics} *)

type fabric =
  | St  (** 4x4 spatio-temporal baseline, [st_4x4] *)
  | St6  (** 6x6 spatio-temporal, [st_6x6] *)
  | St_ml  (** ML-specialized spatio-temporal, [st_ml_4x4] *)
  | Plaid  (** 2x2 Plaid, [plaid_2x2] *)
  | Plaid3  (** 3x3 Plaid, [plaid_3x3] *)
  | Plaid_ml  (** ML-specialized Plaid, [plaid_ml_2x2] *)

val all : fabric list
(** Every named fabric, in table order: st, st6, stml, plaid, plaid3,
    plaidml. *)

val names : string list
(** The CLI names of {!all}, in the same order. *)

val name : fabric -> string
(** The CLI name ([plaidc -a], serve's [arch=]): ["st"], ["st6"], ["stml"],
    ["plaid"], ["plaid3"], ["plaidml"]. *)

val of_name : string -> fabric option
(** Inverse of {!name}. *)

val build : fabric -> built
(** A fresh copy of the fabric. *)

val of_arch_name : string -> built option
(** The named fabric whose built architecture is called [n] (["st_4x4"],
    ["plaid_2x2"], …), for resolving the architecture a mapfile names.
    Builds only that fabric. *)
