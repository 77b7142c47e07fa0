type ('k, 'v) t = { lock : Mutex.t; tbl : ('k, 'v) Hashtbl.t }

let create n = { lock = Mutex.create (); tbl = Hashtbl.create n }

(* Compute outside the lock: memoized values are deterministic functions of
   the key, so a computation duplicated under contention is wasted work but
   never a wrong (or torn) value.  The first value published wins. *)
let find_or_compute t key f =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl key) with
  | Some v -> v
  | None ->
    let v = f () in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some w -> w
        | None ->
          Hashtbl.replace t.tbl key v;
          v)
