open Rlc_numerics
module Netlist = Rlc_circuit.Netlist
module M = Rlc_instr.Metrics

let m_hit = M.counter "serve.cache.hit"
let m_miss = M.counter "serve.cache.miss"
let m_alias = M.counter "serve.cache.alias"
let m_evict = M.counter "serve.cache.evict"

type entry = {
  signature : string;
  asm_plan : Solver.plan;
  mutable dc_sym : Solver.symbolic option;
  mutable ac_sym : Solver.symbolic option;
  mutable tran_plan : Solver.plan option;
}

type slot = { entry : entry; mutable last_use : int }

type t = {
  cap : int;
  table : (string, slot) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable aliases : int;
  mutable evictions : int;
}

let create ?(capacity = 64) () =
  if capacity < 0 then invalid_arg "Deck_cache.create: capacity < 0";
  {
    cap = capacity;
    table = Hashtbl.create (Int.max 16 capacity);
    clock = 0;
    hits = 0;
    misses = 0;
    aliases = 0;
    evictions = 0;
  }

let capacity t = t.cap
let size t = Hashtbl.length t.table

type lookup = Hit of entry | Alias | Miss

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find_key t (probe : Netlist.structural_key) =
  match Hashtbl.find_opt t.table probe.Netlist.hash with
  | Some slot
    when Netlist.key_reusable
           ~cached:{ probe with Netlist.signature = slot.entry.signature }
           ~probe ->
      slot.last_use <- tick t;
      t.hits <- t.hits + 1;
      M.incr m_hit;
      Hit slot.entry
  | Some _ ->
      t.aliases <- t.aliases + 1;
      M.incr m_alias;
      Alias
  | None ->
      t.misses <- t.misses + 1;
      M.incr m_miss;
      Miss

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
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      M.incr m_evict
  | None -> ()

let insert_key t (key : Netlist.structural_key) entry =
  if not (String.equal entry.signature key.Netlist.signature) then
    invalid_arg "Deck_cache.insert_key: entry signature disagrees with key";
  if t.cap > 0 then begin
    Hashtbl.replace t.table key.Netlist.hash { entry; last_use = tick t };
    while Hashtbl.length t.table > t.cap do
      evict_lru t
    done
  end

type stats = {
  hits : int;
  misses : int;
  aliases : int;
  evictions : int;
  entries : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    aliases = t.aliases;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
  }
