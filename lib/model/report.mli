(** Named breakdowns shared by the area and power models. *)

type t = (string * float) list
(** Category -> value; categories are "compute", "compute_config", "comm",
    "comm_config", "regs", and for power additionally "spm". *)

val total : t -> float

val get : t -> string -> float
(** 0.0 for missing categories. *)

val share : t -> string -> float
(** Category value / total. *)

val pp : unit:string -> Format.formatter -> t -> unit

(** {1 Building a fabric breakdown} *)

type category = Compute | Compute_config | Comm | Comm_config | Regs
(** The five fabric categories, in the order reports list them. *)

val category_of_name : string -> category
(** @raise Invalid_argument for a name that is not a fabric category. *)

type acc
(** Running per-category sums. *)

val acc : unit -> acc

val add : acc -> category -> float -> unit

val to_report : acc -> t
(** The categories added to at least once (even by [0.0]), in category
    order. *)
