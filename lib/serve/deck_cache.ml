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
  mutable tran_plan : Rlc_circuit.Transient.structure option;
}

type t = {
  lru : entry Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable aliases : int;
  mutable evictions : int;
}

let create ?(capacity = 64) () =
  if capacity < 0 then invalid_arg "Deck_cache.create: capacity < 0";
  {
    lru = Lru.create capacity;
    hits = 0;
    misses = 0;
    aliases = 0;
    evictions = 0;
  }

type lookup = Hit of entry | Alias | Miss

let find_key t (probe : Netlist.structural_key) =
  let hash = probe.Netlist.hash in
  match Lru.peek t.lru hash with
  | Some entry
    when Netlist.key_reusable
           ~cached:{ probe with Netlist.signature = entry.signature }
           ~probe ->
      ignore (Lru.find t.lru hash : entry option);
      t.hits <- t.hits + 1;
      M.incr m_hit;
      Hit entry
  | Some _ ->
      t.aliases <- t.aliases + 1;
      M.incr m_alias;
      Alias
  | None ->
      t.misses <- t.misses + 1;
      M.incr m_miss;
      Miss

let insert_key t (key : Netlist.structural_key) entry =
  if not (String.equal entry.signature key.Netlist.signature) then
    invalid_arg "Deck_cache.insert_key: entry signature disagrees with key";
  for _ = 1 to Lru.insert t.lru key.Netlist.hash entry do
    t.evictions <- t.evictions + 1;
    M.incr m_evict
  done

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
    entries = Lru.length t.lru;
  }
