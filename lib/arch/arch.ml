type fu_class = { fu_ops : Plaid_ir.Op.t list; fu_memory : bool }

type kind = Fu of fu_class | Port | Reg

type resource = {
  id : int;
  rname : string;
  kind : kind;
  tile : int * int;
  area_class : string;
}

type link = { lsrc : int; ldst : int; latency : int }

type config_profile = {
  compute_bits : int;
  comm_bits : int;
  entries : int;
  clock_gated : bool;
}

type fault =
  | Dead_fu of int
  | Broken_port of int
  | Broken_link of int * int
  | Stuck_config of int * int
  | Faulty_spm of string

(* Derived routing acceleration tables, built lazily from the (faulted)
   adjacency and shared by every mapper thread.  [rt_hop]/[rt_lat] hold
   one row of lower bounds per FU destination, the only destinations a
   router asks about: the row of FU [dst] starts at [rt_row.(dst)], and
   [rt_row.(res) = -1] for every non-FU resource.  Byte 255 means
   "unreachable or >= 255" (the router's max detour is far below 255, so
   the clamp never weakens a usable bound).  [rt_adj_*] is the out-link
   adjacency flattened to CSR form, preserving list order, so the search
   hot loop touches contiguous int arrays instead of chasing list cells.
   [rt_cost] holds the [base_route_cost] values, read by the hot loop
   without matching on [kind]. *)
type route_tables = {
  rt_n : int;
  rt_row : int array;
  rt_hop : Bytes.t;
  rt_lat : Bytes.t;
  rt_adj_idx : int array;
  rt_adj_dst : int array;
  rt_adj_lat : int array;
  rt_cost : float array;
}

type t = {
  name : string;
  resources : resource array;
  links : link array;
  out_links : (int * int) list array;
  in_links : (int * int) list array;
  fus : int array;
  mem_fus : int array;
  config : config_profile;
  allow_fu_routethrough : bool;
  faults : fault list;
  f_res : bool array;           (* resource entirely unusable *)
  f_stuck : int list array;     (* stuck configuration entries per resource *)
  rt_cache : route_tables option Atomic.t;
      (* never compared or fingerprinted; fresh per fault set *)
  fp_cache : string option Atomic.t;
      (* digest of [fingerprint_lines]; fresh per fault set and config *)
}

type builder = {
  bname : string;
  bconfig : config_profile;
  broutethrough : bool;
  mutable bresources : resource list;  (* reversed *)
  mutable blinks : link list;
  mutable next : int;
}

let builder ?(allow_fu_routethrough = true) ~name ~config () =
  { bname = name; bconfig = config; broutethrough = allow_fu_routethrough;
    bresources = []; blinks = []; next = 0 }

let add_resource b ~name ~kind ~tile ~area_class =
  let id = b.next in
  b.next <- id + 1;
  b.bresources <- { id; rname = name; kind; tile; area_class } :: b.bresources;
  id

let add_link b ~src ~dst ~latency = b.blinks <- { lsrc = src; ldst = dst; latency } :: b.blinks

(* A combinational loop is a cycle of latency-0 links.  Registers never emit
   such cycles because their incoming links are latency 1; this check catches
   builder mistakes, playing the role of the paper's EDA loop check. *)
let check_no_combinational_loop name resources out_links =
  let n = Array.length resources in
  let color = Array.make n 0 in
  let rec dfs u =
    color.(u) <- 1;
    List.iter
      (fun (v, lat) ->
        if lat = 0 then
          if color.(v) = 1 then
            invalid_arg (Printf.sprintf "Arch %s: combinational loop through %s" name resources.(v).rname)
          else if color.(v) = 0 then dfs v)
      out_links.(u);
    color.(u) <- 2
  in
  for u = 0 to n - 1 do
    if color.(u) = 0 then dfs u
  done

let freeze b =
  let resources = Array.of_list (List.rev b.bresources) in
  let links = Array.of_list (List.rev b.blinks) in
  let n = Array.length resources in
  let out_links = Array.make n [] and in_links = Array.make n [] in
  Array.iter
    (fun l ->
      if l.lsrc < 0 || l.lsrc >= n || l.ldst < 0 || l.ldst >= n then
        invalid_arg (Printf.sprintf "Arch %s: link endpoint out of range" b.bname);
      if l.latency < 0 || l.latency > 1 then
        invalid_arg (Printf.sprintf "Arch %s: link latency must be 0 or 1" b.bname);
      (match resources.(l.lsrc).kind with
      | Fu _ ->
        if l.latency <> 1 then
          invalid_arg
            (Printf.sprintf "Arch %s: FU %s output link must have latency 1" b.bname
               resources.(l.lsrc).rname)
      | Port | Reg -> ());
      (match resources.(l.ldst).kind with
      | Reg ->
        if l.latency <> 1 then
          invalid_arg
            (Printf.sprintf "Arch %s: register %s write link must have latency 1" b.bname
               resources.(l.ldst).rname)
      | Fu _ | Port -> ());
      out_links.(l.lsrc) <- (l.ldst, l.latency) :: out_links.(l.lsrc);
      in_links.(l.ldst) <- (l.lsrc, l.latency) :: in_links.(l.ldst))
    links;
  Array.iteri (fun i l -> out_links.(i) <- List.rev l) out_links;
  Array.iteri (fun i l -> in_links.(i) <- List.rev l) in_links;
  check_no_combinational_loop b.bname resources out_links;
  let fus =
    Array.to_list resources
    |> List.filter_map (fun r -> match r.kind with Fu _ -> Some r.id | _ -> None)
    |> Array.of_list
  in
  let mem_fus =
    Array.to_list resources
    |> List.filter_map (fun r ->
           match r.kind with Fu c when c.fu_memory -> Some r.id | _ -> None)
    |> Array.of_list
  in
  { name = b.bname; resources; links; out_links; in_links; fus; mem_fus;
    config = b.bconfig; allow_fu_routethrough = b.broutethrough;
    faults = []; f_res = Array.make n false; f_stuck = Array.make n [];
    rt_cache = Atomic.make None; fp_cache = Atomic.make None }

let resource t id = t.resources.(id)

let n_resources t = Array.length t.resources

(* ------------------------------------------------------------- faults *)

let fault_to_string t = function
  | Dead_fu id -> Printf.sprintf "dead FU %s" t.resources.(id).rname
  | Broken_port id -> Printf.sprintf "broken port %s" t.resources.(id).rname
  | Broken_link (s, d) ->
    Printf.sprintf "broken link %s -> %s" t.resources.(s).rname t.resources.(d).rname
  | Stuck_config (res, entry) ->
    Printf.sprintf "stuck config entry %d of %s" entry t.resources.(res).rname
  | Faulty_spm name -> Printf.sprintf "faulty SPM bank %S" name

let faults t = t.faults

let res_faulty t id = t.f_res.(id)

let stuck_entries t id = t.f_stuck.(id)

(* Stuck entry [e] corrupts whatever uses the resource in modulo slot [e];
   callers pass the normalized slot.  A clock-gated fabric only ever loads
   entry 0, so a stuck entry 0 kills the resource outright and higher
   entries are harmless. *)
let cell_faulty t ~res ~slot =
  t.f_res.(res)
  || List.mem (if t.config.clock_gated then 0 else slot) t.f_stuck.(res)

let link_broken t ~src ~dst =
  List.exists (function Broken_link (s, d) -> s = src && d = dst | _ -> false) t.faults

let spm_faulty t name =
  List.exists (function Faulty_spm n -> n = name | _ -> false) t.faults

let set_faults t fault_list =
  let n = Array.length t.resources in
  let in_range id = id >= 0 && id < n in
  let f_res = Array.make n false and f_stuck = Array.make n [] in
  List.iter
    (fun f ->
      match f with
      | Dead_fu id ->
        if not (in_range id) then invalid_arg "Arch.set_faults: FU id out of range";
        (match t.resources.(id).kind with
        | Fu _ -> ()
        | Port | Reg -> invalid_arg "Arch.set_faults: Dead_fu names a non-FU resource");
        f_res.(id) <- true
      | Broken_port id ->
        if not (in_range id) then invalid_arg "Arch.set_faults: port id out of range";
        (match t.resources.(id).kind with
        | Port | Reg -> ()
        | Fu _ -> invalid_arg "Arch.set_faults: Broken_port names an FU");
        f_res.(id) <- true
      | Broken_link (s, d) ->
        if not (Array.exists (fun l -> l.lsrc = s && l.ldst = d) t.links) then
          invalid_arg "Arch.set_faults: Broken_link names no architecture link"
      | Stuck_config (res, entry) ->
        if not (in_range res) then invalid_arg "Arch.set_faults: resource id out of range";
        if entry < 0 || entry >= t.config.entries then
          invalid_arg "Arch.set_faults: config entry out of range";
        if not (List.mem entry f_stuck.(res)) then f_stuck.(res) <- entry :: f_stuck.(res)
      | Faulty_spm name ->
        if name = "" then invalid_arg "Arch.set_faults: empty SPM bank name")
    fault_list;
  Array.iteri (fun i l -> f_stuck.(i) <- List.sort compare l) f_stuck;
  (* Broken links disappear from the adjacency (always derived from the
     pristine [links] array, so repeated [set_faults] calls don't compound);
     the link itself stays in [links] for area/netlist purposes — broken
     silicon still occupies silicon. *)
  let broken (s, d) =
    List.exists (function Broken_link (s', d') -> s' = s && d' = d | _ -> false) fault_list
  in
  let out_links = Array.make n [] and in_links = Array.make n [] in
  Array.iter
    (fun l ->
      if not (broken (l.lsrc, l.ldst)) then begin
        out_links.(l.lsrc) <- (l.ldst, l.latency) :: out_links.(l.lsrc);
        in_links.(l.ldst) <- (l.lsrc, l.latency) :: in_links.(l.ldst)
      end)
    t.links;
  Array.iteri (fun i l -> out_links.(i) <- List.rev l) out_links;
  Array.iteri (fun i l -> in_links.(i) <- List.rev l) in_links;
  (* Adjacency and fault set changed, so both caches are stale; the faulted
     copy gets its own (empty) caches rather than sharing the pristine ones. *)
  { t with faults = fault_list; f_res; f_stuck; out_links; in_links;
    rt_cache = Atomic.make None; fp_cache = Atomic.make None }

let fu_supports t id op =
  (not t.f_res.(id))
  &&
  match t.resources.(id).kind with
  | Fu c ->
    List.exists (Plaid_ir.Op.equal op) c.fu_ops
    && (c.fu_memory || match op with Plaid_ir.Op.Load | Store | Input -> false | _ -> true)
  | Port | Reg -> false

(* Dead FUs contribute no issue slots; ResMII must see the degraded fabric
   or the II search would start below what the masked MRRG can hold. *)
let capacity t =
  let live ids = Array.to_list ids |> List.filter (fun id -> not t.f_res.(id)) |> List.length in
  { Plaid_ir.Analysis.total_slots = max 1 (live t.fus);
    memory_slots = max 1 (live t.mem_fus) }

let alu_compute_class = { fu_ops = Plaid_ir.Op.all_compute; fu_memory = false }

let alsu_class =
  { fu_ops = Plaid_ir.Op.all_compute @ [ Plaid_ir.Op.Load; Plaid_ir.Op.Store; Plaid_ir.Op.Input ];
    fu_memory = true }

let base_route_cost t id =
  match t.resources.(id).kind with
  | Fu _ -> 4.0  (* route-through burns an issue slot *)
  | Port -> 1.0
  | Reg -> 1.2

(* ------------------------------------------------- routing tables *)

let unreachable = 255

let build_route_tables t =
  let n = Array.length t.resources in
  (* CSR adjacency in out_links list order (the router's exploration order
     is part of the deterministic contract, so the flattening must not
     reorder). *)
  let rt_adj_idx = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    rt_adj_idx.(i + 1) <- rt_adj_idx.(i) + List.length t.out_links.(i)
  done;
  let m = rt_adj_idx.(n) in
  let rt_adj_dst = Array.make m 0 and rt_adj_lat = Array.make m 0 in
  for i = 0 to n - 1 do
    let k = ref rt_adj_idx.(i) in
    List.iter
      (fun (dst, lat) ->
        rt_adj_dst.(!k) <- dst;
        rt_adj_lat.(!k) <- lat;
        incr k)
      t.out_links.(i)
  done;
  (* The same links reversed, in CSR form: [in_idx.(v) .. in_idx.(v+1)-1]
     index the links entering [v]. *)
  let in_idx = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let v = rt_adj_dst.(k) + 1 in
    in_idx.(v) <- in_idx.(v) + 1
  done;
  for i = 0 to n - 1 do
    in_idx.(i + 1) <- in_idx.(i + 1) + in_idx.(i)
  done;
  let fill = Array.sub in_idx 0 n in
  let in_src = Array.make m 0 and in_lat = Array.make m 0 in
  for u = 0 to n - 1 do
    for k = rt_adj_idx.(u) to rt_adj_idx.(u + 1) - 1 do
      let v = rt_adj_dst.(k) in
      let j = fill.(v) in
      in_src.(j) <- u;
      in_lat.(j) <- rt_adj_lat.(k);
      fill.(v) <- j + 1
    done
  done;
  let rt_row = Array.make n (-1) in
  Array.iteri (fun k fu -> rt_row.(fu) <- k * n) t.fus;
  let rows = Array.length t.fus * n in
  let rt_hop = Bytes.make rows (Char.chr unreachable) in
  let rt_lat = Bytes.make rows (Char.chr unreachable) in
  (* Per FU destination, relax backwards over the reversed links.  Hops
     weight every link 1; latency uses the link's 0/1 weight.  A resource
     sits in the FIFO at most once at a time, so [n] ring slots suffice. *)
  let queue = Array.make n 0 and queued = Array.make n false in
  let relax table ~base ~dst ~hops =
    Bytes.unsafe_set table (base + dst) '\000';
    queue.(0) <- dst;
    queued.(dst) <- true;
    let head = ref 0 and len = ref 1 in
    while !len > 0 do
      let v = queue.(!head) in
      queued.(v) <- false;
      head := if !head + 1 = n then 0 else !head + 1;
      decr len;
      let dv = Char.code (Bytes.unsafe_get table (base + v)) in
      for k = in_idx.(v) to in_idx.(v + 1) - 1 do
        let u = in_src.(k) in
        let du = dv + if hops then 1 else in_lat.(k) in
        let du = if du > unreachable then unreachable else du in
        if du < Char.code (Bytes.unsafe_get table (base + u)) then begin
          Bytes.unsafe_set table (base + u) (Char.unsafe_chr du);
          if not queued.(u) then begin
            queued.(u) <- true;
            let tail = !head + !len in
            queue.(if tail >= n then tail - n else tail) <- u;
            incr len
          end
        end
      done
    done
  in
  Array.iter
    (fun dst ->
      let base = rt_row.(dst) in
      relax rt_hop ~base ~dst ~hops:true;
      relax rt_lat ~base ~dst ~hops:false)
    t.fus;
  let rt_cost = Array.init n (base_route_cost t) in
  { rt_n = n; rt_row; rt_hop; rt_lat; rt_adj_idx; rt_adj_dst; rt_adj_lat; rt_cost }

(* Lazy shared build: losing a publication race only wastes the duplicate
   work — both results are identical pure functions of the value. *)
let cached cell build =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    let v = build () in
    if Atomic.compare_and_set cell None (Some v) then v
    else (match Atomic.get cell with Some v -> v | None -> v)

let route_tables t = cached t.rt_cache (fun () -> build_route_tables t)

let config_bits_per_entry t = t.config.compute_bits + t.config.comm_bits

(* The routing tables depend only on the adjacency, so they are shared; the
   config profile is part of the fingerprint, so its digest starts afresh. *)
let set_config t config = { t with config; fp_cache = Atomic.make None }

(* Canonical structural dump for cache fingerprinting: everything a mapper
   can observe — resources, links, config profile, routethrough policy, and
   the attached fault set (sorted, so list order cannot split a cache).
   Derived tables (out_links, f_res, ...) are functions of these and are
   deliberately omitted. *)
let fingerprint_lines t =
  let lines = ref [] in
  let pf fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  pf "arch %s" t.name;
  pf "config %d %d %d %c" t.config.compute_bits t.config.comm_bits t.config.entries
    (if t.config.clock_gated then 'g' else '-');
  pf "routethrough %c" (if t.allow_fu_routethrough then 'y' else 'n');
  Array.iter
    (fun r ->
      let kind =
        match r.kind with
        | Port -> "port"
        | Reg -> "reg"
        | Fu f ->
          Printf.sprintf "fu[%s]%s"
            (String.concat "," (List.map Plaid_ir.Op.to_string f.fu_ops))
            (if f.fu_memory then "+mem" else "")
      in
      pf "res %d %s %s (%d,%d) %s" r.id r.rname kind (fst r.tile) (snd r.tile)
        r.area_class)
    t.resources;
  Array.iter (fun l -> pf "link %d %d %d" l.lsrc l.ldst l.latency) t.links;
  List.iter (fun f -> pf "fault %s" f)
    (List.sort compare (List.map (fault_to_string t) t.faults));
  List.rev !lines

let fingerprint t =
  cached t.fp_cache (fun () ->
      Digest.to_hex (Digest.string (String.concat "\n" (fingerprint_lines t))))

let pp_summary fmt t =
  let count k = Array.to_list t.resources |> List.filter (fun r -> r.kind = k) |> List.length in
  Format.fprintf fmt "%s: %d FUs (%d memory-capable), %d ports, %d regs, %d links, %d cfg bits/entry"
    t.name (Array.length t.fus) (Array.length t.mem_fus) (count Port) (count Reg)
    (Array.length t.links) (config_bits_per_entry t);
  if t.faults <> [] then Format.fprintf fmt " [%d faults]" (List.length t.faults)
