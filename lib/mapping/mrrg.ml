type signal = { s_node : int; s_elapsed : int }

type cell = {
  mutable exec : int option;              (* node executing on this FU slot *)
  mutable signals : (signal * int) list;  (* signal -> refcount *)
}

(* Extension slot: lets higher layers (the router's memo) attach per-MRRG
   state without introducing a dependency cycle. *)
type ext = ..

type ext += Ext_none

type t = {
  m_arch : Plaid_arch.Arch.t;
  m_ii : int;
  exclusive : bool;
  cells : cell array array;    (* [resource].[slot]; one slot when exclusive *)
  blocked : bool array array;  (* faulted cells: never free, never usable *)
  ov_cells : (int, unit) Hashtbl.t;  (* cell index -> (), iff presence >= 2 *)
  mutable ov_total : int;            (* sum over cells of max 0 (presence-1) *)
  mutable m_ext : ext;
}

(* A clock-gated (spatial) fabric freezes its configuration for the whole
   segment: each FU executes one node and each wire carries one signal for
   the entire execution, regardless of the modulo slot.  Occupancy then
   collapses to a single cell per resource. *)
let create arch ~ii =
  if ii < 1 then invalid_arg "Mrrg.create: ii must be >= 1";
  let exclusive = arch.Plaid_arch.Arch.config.clock_gated in
  let slots = if exclusive then 1 else ii in
  let n = Plaid_arch.Arch.n_resources arch in
  (* Faulted silicon is masked at creation: a dead resource blocks every
     slot, a stuck configuration entry blocks exactly the modulo slot that
     would read it (entry 0 under a frozen configuration). *)
  let blocked =
    if Plaid_arch.Arch.faults arch = [] then
      Array.init n (fun _ -> Array.make slots false)
    else
      Array.init n (fun res ->
          Array.init slots (fun slot -> Plaid_arch.Arch.cell_faulty arch ~res ~slot))
  in
  { m_arch = arch; m_ii = ii; exclusive; blocked;
    cells = Array.init n (fun _ -> Array.init slots (fun _ -> { exec = None; signals = [] }));
    ov_cells = Hashtbl.create 64; ov_total = 0; m_ext = Ext_none }

let arch t = t.m_arch

let ii t = t.m_ii

let exclusive t = t.exclusive

let slots t = if t.exclusive then 1 else t.m_ii

let eff_slot t slot = if t.exclusive then 0 else Schedule.slot ~ii:t.m_ii slot

let cell t res slot = t.cells.(res).(eff_slot t slot)

let cells t = t.cells

let blocked_cells t = t.blocked

let cell_index t ~res ~slot = (res * slots t) + eff_slot t slot

let blocked t ~res ~slot = t.blocked.(res).(eff_slot t slot)

let presence_of c = List.length c.signals + match c.exec with Some _ -> 1 | None -> 0

(* Every occupancy mutation ends in [account], which keeps the O(1)
   overuse counter and the overused-cell set exact whatever the
   before/after presences of the cell [c] at ([res], [slot]) are. *)
let account t ~res ~slot c ~before =
  let after = presence_of c in
  if after <> before then begin
    let over p = if p > 1 then p - 1 else 0 in
    t.ov_total <- t.ov_total + over after - over before;
    let idx = cell_index t ~res ~slot in
    if after >= 2 then (if before < 2 then Hashtbl.replace t.ov_cells idx ())
    else if before >= 2 then Hashtbl.remove t.ov_cells idx
  end

let mutating t ~res ~slot f =
  let c = cell t res slot in
  let before = presence_of c in
  f c;
  account t ~res ~slot c ~before

let is_empty c = match (c.exec, c.signals) with None, [] -> true | _ -> false

let same_signal a b = a.s_node = b.s_node && a.s_elapsed = b.s_elapsed

let fu_free t ~fu ~slot = (not (blocked t ~res:fu ~slot)) && is_empty (cell t fu slot)

let place_node t ~node ~fu ~slot =
  if blocked t ~res:fu ~slot then
    invalid_arg
      (Printf.sprintf "Mrrg.place_node: %s slot %d is faulted"
         (Plaid_arch.Arch.resource t.m_arch fu).rname (Schedule.slot ~ii:t.m_ii slot));
  mutating t ~res:fu ~slot (fun c ->
      if not (is_empty c) then
        invalid_arg
          (Printf.sprintf "Mrrg.place_node: %s slot %d busy"
             (Plaid_arch.Arch.resource t.m_arch fu).rname (Schedule.slot ~ii:t.m_ii slot));
      c.exec <- Some node)

let unplace_node t ~node ~fu ~slot =
  mutating t ~res:fu ~slot (fun c ->
      match c.exec with
      | Some n when n = node -> c.exec <- None
      | _ -> invalid_arg "Mrrg.unplace_node: node not placed there")

let node_at t ~fu ~slot = (cell t fu slot).exec

let can_use t ~res ~slot signal =
  let c = cell t res slot in
  (not (blocked t ~res ~slot))
  && match (c.exec, c.signals) with
     | None, [] -> true
     | None, [ (s, _) ] -> same_signal s signal
     | _ -> false

(* [occupy] and [release] run once per path hop; they update the signal
   list directly, so neither allocates a closure. *)
let rec bump signal = function
  | [] -> [ (signal, 1) ]
  | (s, n) :: rest when same_signal s signal -> (s, n + 1) :: rest
  | sn :: rest -> sn :: bump signal rest

let rec drop signal = function
  | [] -> invalid_arg "Mrrg.release: signal not present"
  | (s, n) :: rest when same_signal s signal -> if n = 1 then rest else (s, n - 1) :: rest
  | sn :: rest -> sn :: drop signal rest

let occupy t ~res ~slot signal =
  let c = cell t res slot in
  let before = presence_of c in
  c.signals <- bump signal c.signals;
  account t ~res ~slot c ~before

let release t ~res ~slot signal =
  let c = cell t res slot in
  let before = presence_of c in
  c.signals <- drop signal c.signals;
  account t ~res ~slot c ~before

let presence t ~res ~slot = presence_of (cell t res slot)

let overuse t = t.ov_total

let n_overused_cells t = Hashtbl.length t.ov_cells

(* Sorted by cell index so congestion-driven iteration (history updates,
   dirty-edge detection, kick targeting) is deterministic. *)
let overused_cells t =
  let ns = slots t in
  Hashtbl.fold (fun idx () acc -> idx :: acc) t.ov_cells []
  |> List.sort compare
  |> List.map (fun idx ->
         let res = idx / ns and slot = idx mod ns in
         (res, slot, presence_of t.cells.(res).(slot)))

let overused_mem t ~res ~slot = Hashtbl.mem t.ov_cells (cell_index t ~res ~slot)

let clear t =
  Array.iter
    (fun row ->
      Array.iter
        (fun c ->
          c.exec <- None;
          c.signals <- [])
        row)
    t.cells;
  Hashtbl.reset t.ov_cells;
  t.ov_total <- 0

let get_ext t = t.m_ext

let set_ext t e = t.m_ext <- e
