(* A capacity-bounded least-recently-used table keyed by strings — the
   one eviction policy behind both serving caches (Deck_cache's
   structural families and Service's exact-text memo).  Recency is a
   per-table logical clock, so eviction order is deterministic.
   Capacity 0 keeps nothing. *)

type 'a slot = { value : 'a; mutable last_use : int }

type 'a t = {
  cap : int;
  table : (string, 'a slot) Hashtbl.t;
  mutable clock : int;
}

let create cap = { cap; table = Hashtbl.create 64; clock = 0 }
let length t = Hashtbl.length t.table

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let peek t key = Option.map (fun s -> s.value) (Hashtbl.find_opt t.table key)

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some slot ->
      slot.last_use <- tick t;
      Some slot.value
  | None -> None

(* Eviction scans for the stalest slot: O(capacity), but only on the
   (rare) insert past capacity of a cache that is small by design. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key slot ->
      match !victim with
      | Some (_, best) when best <= slot.last_use -> ()
      | _ -> victim := Some (key, slot.last_use))
    t.table;
  Option.iter (fun (key, _) -> Hashtbl.remove t.table key) !victim

let insert t key value =
  if t.cap = 0 then 0
  else begin
    Hashtbl.replace t.table key { value; last_use = tick t };
    let evicted = ref 0 in
    while Hashtbl.length t.table > t.cap do
      evict_lru t;
      incr evicted
    done;
    !evicted
  end
