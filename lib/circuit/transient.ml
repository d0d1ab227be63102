open Rlc_numerics
module M = Rlc_instr.Metrics

let m_steps = M.counter "transient.steps"
let m_rejected = M.counter "transient.rejected_steps"
let m_nonconverged = M.counter "transient.nonconverged_steps"
let m_cache_hit = M.counter "transient.lu_cache.hit"
let m_cache_miss = M.counter "transient.lu_cache.miss"
let m_forced = M.counter "transient.forced_accepts"
let m_advances = M.counter "transient.advances"
let m_step_s = M.hist "transient.step_s"

type integration = Trapezoidal | Backward_euler

type backend = Solver.backend = Auto | Dense | Banded | Sparse

type probe = Node_v of Netlist.node | Branch_i of string

(* The companion system's structure analysis, shared by every run of a
   structural family: the plan, and the sparse symbolic analysis once a
   run has factorised the system.  Immutable. *)
type structure = { plan : Solver.plan; symbolic : Solver.symbolic option }

module Config = struct
  type t = {
    integration : integration;
    backend : backend;
    max_state_iterations : int;
    record_every : int;
    initial_voltages : (Netlist.node * float) list;
    rtol : float;
    atol : float;
    dt_min : float option;
    plan_hint : structure option;
  }

  let default =
    {
      integration = Trapezoidal;
      backend = Auto;
      max_state_iterations = 8;
      record_every = 1;
      initial_voltages = [];
      rtol = 1e-3;
      atol = 1e-6;
      dt_min = None;
      plan_hint = None;
    }
end

(* An element's tag in the flat element table.  Capacitors, RL branches
   and coupled pairs carry their integration method in the tag, so one
   dispatch per element picks both the kind and the companion formula.
   A coupled pair takes two rows, its first branch tagged [Pair_*] and
   its second [Pair_2nd], which the element passes skip. *)
type tag =
  | R
  | C_trap
  | C_be
  | Rl_trap
  | Rl_be
  | Pair_trap
  | Pair_be
  | Pair_2nd
  | V
  | I
  | Inv

module Stats = struct
  type t = {
    steps : int;
    rejected_steps : int;
    forced_accepts : int;
    nonconverged_steps : int;
    lu_factorizations : int;
  }
end

type result = {
  time : float array;
  probe_data : (probe * float array) list;
  final_v : float array;
  histogram : int array;
  stats : Stats.t;
  structure : structure;
}

let time r = Array.copy r.time
let final_voltages r = Array.copy r.final_v
let steps_taken r = r.stats.Stats.steps
let state_iteration_histogram r = Array.copy r.histogram
let stats r = r.stats
let final_structure r = r.structure

(* Counters mirror the per-run [Stats.t] into the registry at the end
   of each driver.  LU factorizations are *not* re-added here — every
   one was already counted as a [transient.lu_cache.miss]. *)
let publish_stats (s : Stats.t) =
  M.add m_steps (Float.of_int s.Stats.steps);
  M.add m_rejected (Float.of_int s.Stats.rejected_steps);
  M.add m_forced (Float.of_int s.Stats.forced_accepts);
  M.add m_nonconverged (Float.of_int s.Stats.nonconverged_steps)

let get r probe =
  match List.assoc_opt probe r.probe_data with
  | Some values -> Rlc_waveform.Waveform.create ~times:r.time ~values
  | None -> raise Not_found

(* The compiled circuit: one flat table of its elements in netlist
   order, an inverter adding its gate and drain capacitors before its
   output stage.  Row [e] is a [tag.(e)] branch from node [na.(e)] to
   [nb.(e)], an inverter's output to ground.  [st.(e)] is a voltage
   source's row, which is also its index in [stims] (current sources
   follow), or an inverter's index.  [value] holds a resistor's
   conductance, a capacitor's capacitance and an RL branch's
   resistance, [henries] its inductance (a pair's mutual one on its
   second row). *)
type circuit = {
  tag : tag array;
  na : int array;
  nb : int array;
  st : int array;
  value : float array;
  henries : float array;
  of_id : int array; (* netlist element id -> row *)
  stims : Stimulus.t array;
  inv_in : int array; (* by inverter: its input node *)
  devs : Devices.inverter array;
  n_nodes : int;
  m : int; (* unknowns: nodes - 1 + voltage sources *)
}

let compile netlist =
  let elements = Netlist.elements netlist in
  let rows = function Netlist.Inverter _ -> 3 | Coupled_rl _ -> 2 | _ -> 1 in
  let n = Array.fold_left (fun n e -> n + rows e) 0 elements in
  let tag = Array.make n R and na = Array.make n 0 and nb = Array.make n 0 in
  let st = Array.make n 0 and value = Array.make n 0.0 in
  let henries = Array.make n 0.0 in
  let next = ref 0 and vs = Queue.create () and is = Queue.create () in
  let invs = Queue.create () in
  let push t a b ?(s = 0) ?(l = 0.0) x =
    let e = !next in
    incr next;
    tag.(e) <- t; na.(e) <- a; nb.(e) <- b;
    st.(e) <- s; value.(e) <- x; henries.(e) <- l;
    e
  in
  let add q x =
    Queue.add x q;
    Queue.length q - 1
  in
  let cap a c = ignore (push C_trap a Netlist.ground c) in
  let of_id =
    Array.map
      (function
        | Netlist.Resistor { a; b; ohms }
        | Netlist.Rl_branch { a; b; ohms; henries = 0.0 } ->
            push R a b (1.0 /. ohms)
        | Netlist.Capacitor { a; b; farads } -> push C_trap a b farads
        | Netlist.Rl_branch { a; b; ohms; henries = l } ->
            push Rl_trap a b ~l ohms
        | Netlist.Coupled_rl { a1; b1; a2; b2; ohms; henries; mutual } ->
            let e = push Pair_trap a1 b1 ~l:henries ohms in
            ignore (push Pair_2nd a2 b2 ~l:mutual ohms);
            e
        | Netlist.Vsource { a; b; stim } -> push V a b ~s:(add vs stim) 0.0
        | Netlist.Isource { a; b; stim } -> push I a b ~s:(add is stim) 0.0
        | Netlist.Inverter { input; output; dev } ->
            cap input dev.Devices.c_in;
            cap output dev.Devices.c_out;
            let s = add invs (input, dev) in
            push Inv output Netlist.ground ~s 0.0)
      elements
  in
  let n_v = Queue.length vs and invs = Array.of_seq (Queue.to_seq invs) in
  Array.iteri (fun e t -> if t = I then st.(e) <- st.(e) + n_v) tag;
  let n_nodes = Netlist.node_count netlist in
  let m = n_nodes - 1 + n_v in
  if m = 0 then invalid_arg "Transient: empty circuit";
  {
    tag; na; nb; st; value; henries; of_id;
    stims = Array.of_seq (Seq.append (Queue.to_seq vs) (Queue.to_seq is));
    inv_in = Array.map fst invs;
    devs = Array.map snd invs;
    n_nodes; m;
  }

(* The companion model of one (method, dt): the table's tags for that
   method and, by row, every coefficient the stamp and the element pass
   read — filled by [coefficients], the one site of each formula, and
   cached with the factor of the matrix it stamps.  [g] is a
   capacitor's alpha c / dt, an RL branch's 1 / (r + alpha l / dt) and
   [h] its history factor 2 l / dt - r (BE: l / dt); a pair's first row
   has d = r + alpha l / dt and the history factor, its second
   o = alpha m / dt (also the mutual history factor) and d^2 - o^2. *)
type coeffs = { tags : tag array; g : float array; h : float array }
type companion = { co : coeffs; factor : Solver.factor }

let coefficients circ meth dt =
  let trap = meth = Trapezoidal in
  let alpha = if trap then 2.0 else 1.0 in
  let n = Array.length circ.tag in
  let g = Array.make n 0.0 and h = Array.make n 0.0 in
  for e = 0 to n - 1 do
    let r = circ.value.(e) and l = circ.henries.(e) in
    let series = r +. (alpha *. l /. dt) in
    let hist = if trap then (2.0 *. l /. dt) -. r else l /. dt in
    match circ.tag.(e) with
    | C_trap | C_be -> g.(e) <- alpha *. r /. dt
    | Rl_trap | Rl_be ->
        g.(e) <- 1.0 /. series;
        h.(e) <- hist
    | Pair_trap | Pair_be ->
        let o = alpha *. circ.henries.(e + 1) /. dt in
        g.(e) <- series;
        h.(e) <- hist;
        g.(e + 1) <- o;
        h.(e + 1) <- (series *. series) -. (o *. o)
    | Pair_2nd | R | V | I | Inv -> ()
  done;
  let be = function C_trap -> C_be | Rl_trap -> Rl_be | Pair_trap -> Pair_be | t -> t in
  { tags = (if trap then circ.tag else Array.map be circ.tag); g; h }

(* Engine state: the last MNA solution, in permuted order, with the
   node voltages at their rows and a 0 for ground at index m; branch
   currents by table row; the inverters' logic states and drives.  [v]
   is mutable because the adaptive driver rotates solution arrays
   through its history instead of copying them. *)
type state = {
  mutable v : float array;
  i : float array;
  inv_high : bool array;
  inv_drive : float array;
}

(* The adaptive driver's clock [t]; the dt and end time of the step
   [advance] takes next; its LTE estimate; the time of the last accept
   pass, which the step histogram adds to the next advance.  All
   floats, so the record is flat and writing it allocates nothing. *)
type step = {
  mutable t : float;
  mutable dt : float;
  mutable t_next : float;
  mutable err : float;
  mutable accept_s : float;
  rtol : float;
  atol : float;
}

type engine = {
  circ : circuit;
  plan : Solver.plan; (* shared structure analysis: RCM + bandwidth *)
  ra : int array; (* by row: na and nb as rows of the permuted *)
  rb : int array; (* system, m for ground *)
  mutable cur : state; (* the accepted state *)
  mutable nxt : state; (* written by [advance], swapped in by [accept] *)
  mutable ready : bool; (* eng.rhs holds the RHS of the next step *)
  top : float; (* level 0's dt; level k steps by top / 2^k *)
  levels : companion option array; (* by 2 level + method index *)
  off_dt : float array; (* by method: the off-grid slot's dt *)
  step : step;
  src : float array; (* by source: its value at step.t_next *)
  rhs : float array; (* in permuted order, like the solution: *)
  x : float array; (* the last solve's, copied to nxt.v when it ends *)
  w : float array; (* by pair row: coupled history of the last RHS *)
  trial_next : bool array;
  past : float array array; (* the two accepted solutions before cur.v *)
  past_t : float array; (* the times of those and of cur.v *)
  histogram : int array;
  max_state_iterations : int;
  mutable nonconverged : int;
  mutable factorizations : int;
  coo : Assembly.Coo.t;
      (* the companion matrix: its pattern and slot index are built by
         the first factorisation; later ones reset its values and
         restamp *)
  mutable structure : structure;
      (* [plan] and the sparse symbolic analysis every factorisation
         replays — the companion pattern never changes, only values.
         The hint itself while its symbolic holds; the first
         factorisation without one, or a repivot, puts the fresh
         analysis in a new value *)
}

let vi node = node - 1

(* Stamp a companion model's MNA matrix into a COO accumulator.
   The conductance/cross patterns come from {!Assembly.Coo} — the one
   stamping implementation — and the values from [co]; only the
   closed-form 2x2 coupled-RL inverse is formed here.  The
   voltage-source rows stay in the engine's historical symmetric form
   (+1/+1), which differs from the frequency-domain skew convention but
   yields the same solutions. *)
let stamp_coo coo (circ : circuit) co =
  for e = 0 to Array.length circ.tag - 1 do
    let na = circ.na.(e) and nb = circ.nb.(e) and k = circ.st.(e) in
    match circ.tag.(e) with
    | R -> Assembly.Coo.stamp_g coo na nb circ.value.(e)
    | C_trap | C_be | Rl_trap | Rl_be ->
        Assembly.Coo.stamp_g coo na nb co.g.(e)
    | Pair_trap | Pair_be ->
        (* i = G v with G = inv(R I + alpha L_mat / dt),
           L_mat = [l m; m l] *)
        let a2 = circ.na.(e + 1) and b2 = circ.nb.(e + 1) in
        let det = co.h.(e + 1) in
        let g_self = co.g.(e) /. det and g_cross = -.co.g.(e + 1) /. det in
        Assembly.Coo.stamp_g coo na nb g_self;
        Assembly.Coo.stamp_g coo a2 b2 g_self;
        Assembly.Coo.stamp_cross coo ~a:na ~b:nb ~ma:a2 ~mb:b2 g_cross;
        Assembly.Coo.stamp_cross coo ~a:a2 ~b:b2 ~ma:na ~mb:nb g_cross
    | Inv ->
        Assembly.Coo.stamp_g coo na Netlist.ground
          (1.0 /. circ.devs.(k).Devices.r_on)
    | V ->
        let r = circ.n_nodes - 1 + k in
        let incidence node x =
          if node <> 0 then begin
            Assembly.Coo.stamp_at coo (vi node) r x;
            Assembly.Coo.stamp_at coo r (vi node) x
          end
        in
        incidence na 1.0;
        incidence nb (-1.0)
    | Pair_2nd | I -> ()
  done

(* Compile and plan: the one path of every engine and of
   [structure_plan] (the *companion* system's plan, distinct from the
   MNA plan of {!Assembly.of_netlist}).  The companion structure is
   dt-independent, so one probe stamp (any positive dt) gives the
   adjacency the shared plan (RCM ordering + bandwidth + backend
   choice) is built from; a [hint] sized for this system — a
   structurally identical deck's [structure_plan] or
   [final_structure], as the serving layer keeps per family — skips
   the probe and the ordering. *)
let analyse ?hint ~backend netlist =
  let circ = compile netlist in
  match (hint : structure option) with
  | Some s when s.plan.Solver.n = circ.m -> (circ, s)
  | Some _ | None ->
      let probe = Assembly.Coo.create ~size:circ.m in
      stamp_coo probe circ (coefficients circ Trapezoidal 1.0);
      let plan = Solver.plan ~backend (Assembly.Coo.adjacency probe) in
      (circ, { plan; symbolic = None })

let structure_plan ?(backend = Auto) netlist = snd (analyse ~backend netlist)

(* An engine whose steps are [top / 2^level] for level < [levels], or
   off that grid. *)
let make_engine (config : Config.t) netlist ~top ~levels =
  let max_state_iterations = config.Config.max_state_iterations in
  if max_state_iterations < 1 then
    invalid_arg "Transient: max_state_iterations < 1";
  let circ, structure =
    analyse ?hint:config.Config.plan_hint ~backend:config.Config.backend
      netlist
  in
  let plan = structure.plan in
  let n = circ.n_nodes and n_el = Array.length circ.tag in
  let n_invs = Array.length circ.devs in
  let state () =
    let bools = Array.make n_invs false and drives = Array.make n_invs 0.0 in
    { v = Array.make (circ.m + 1) 0.0; i = Array.make n_el 0.0; inv_high = bools;
      inv_drive = drives }
  in
  let cur = state () in
  let row a = if a = 0 then circ.m else plan.Solver.perm.(vi a) in
  List.iter
    (fun (node, volt) ->
      if node <= 0 || node >= n then
        invalid_arg "Transient: initial voltage on bad node";
      cur.v.(row node) <- volt)
    config.Config.initial_voltages;
  Array.iteri
    (fun k dev ->
      let high = Devices.drives_high dev ~v_in:cur.v.(row circ.inv_in.(k)) in
      cur.inv_high.(k) <- high;
      cur.inv_drive.(k) <- (if high then dev.Devices.vdd else 0.0))
    circ.devs;
  let { Config.rtol; atol; _ } = config in
  {
    circ; plan; ra = Array.map row circ.na; rb = Array.map row circ.nb;
    cur; nxt = state (); ready = false; top;
    levels = Array.make (2 * (levels + 1)) None;
    off_dt = Array.make 2 0.0;
    step =
      { t = 0.0; dt = top; t_next = top; err = 0.0; accept_s = 0.0; rtol; atol };
    src = Array.make (Array.length circ.stims) 0.0;
    rhs = Array.make circ.m 0.0; x = Array.make circ.m 0.0; w = Array.make n_el 0.0;
    trial_next = Array.make n_invs false;
    past = Array.init 2 (fun _ -> Array.make (circ.m + 1) 0.0);
    past_t = Array.make 3 0.0;
    histogram = Array.make max_state_iterations 0;
    max_state_iterations; nonconverged = 0; factorizations = 0;
    coo = Assembly.Coo.create ~size:circ.m; structure;
  }

(* The companion of [meth] at [eng.step.dt]: at [level] on the grid,
   or (level < 0) off it, where the slot after the last level holds the
   last off-grid dt's unless that dt lands on the grid after all.  A
   companion is found by the exact dt it was built for, never reused
   for another. *)
let companion eng meth level =
  let mi = match meth with Trapezoidal -> 0 | Backward_euler -> 1 in
  let dt = eng.step.dt and off = (Array.length eng.levels / 2) - 1 in
  let level =
    if level >= 0 then level
    else
      let k = Float.to_int (Float.round (Float.log2 (eng.top /. dt))) in
      if k >= 0 && k < off && Float.ldexp eng.top (-k) = dt then k else -1
  in
  let slot = (2 * if level >= 0 then level else off) + mi in
  match eng.levels.(slot) with
  | Some c when level >= 0 || eng.off_dt.(mi) = dt ->
      M.incr m_cache_hit;
      c
  | Some _ | None ->
      M.incr m_cache_miss;
      let co = coefficients eng.circ meth dt in
      Assembly.Coo.reset eng.coo;
      stamp_coo eng.coo eng.circ co;
      let s = eng.structure in
      let factor =
        try
          Solver.factor ?symbolic:s.symbolic eng.plan
            ~fill:(Assembly.Coo.iter eng.coo)
        with Solver.Singular -> failwith "Transient: singular MNA matrix"
      in
      (match (s.symbolic, Solver.symbolic_of factor) with
      | Some a, Some b when a == b -> ()
      | None, None -> ()
      | _, symbolic -> eng.structure <- { s with symbolic });
      let c = { co; factor } in
      eng.levels.(slot) <- Some c;
      if level < 0 then eng.off_dt.(mi) <- dt;
      eng.factorizations <- eng.factorizations + 1;
      c

let[@inline] slewed_drive dev ~dt current target_high =
  let target = if target_high then dev.Devices.vdd else 0.0 in
  if dev.Devices.t_transition <= 0.0 then target
  else begin
    let max_step = dev.Devices.vdd *. dt /. dev.Devices.t_transition in
    let delta = target -. current in
    if Float.abs delta <= max_step then target
    else current +. Float.copy_sign max_step delta
  end

(* Add [i] to the RHS at row [ra] and take it out at row [rb]; rows
   past the end of [b] are ground. *)
let[@inline] inject b ra rb i =
  if ra < Array.length b then b.(ra) <- b.(ra) +. i;
  if rb < Array.length b then b.(rb) <- b.(rb) -. i

let[@inline] set (a : float array) k x =
  a.(k) <- x;
  x

(* Every source's value at [eng.step.t_next]. *)
let sources eng =
  for j = 0 to Array.length eng.src - 1 do
    eng.src.(j) <- eng.step.t_next;
    Stimulus.eval_into eng.circ.stims.(j) eng.src j
  done

(* The coupled pair at rows [e], [e + 1] in [sweep]; its history
   voltages go to [eng.w] for the commit. *)
let pair eng cc co ~commit s e ~trap =
  let w = eng.w and v = s.v and i = s.i in
  let a1 = eng.ra.(e) and b1 = eng.rb.(e) in
  let a2 = eng.ra.(e + 1) and b2 = eng.rb.(e + 1) in
  if commit then begin
    let d = cc.g.(e) and o = cc.g.(e + 1) and det = cc.h.(e + 1) in
    let u1 = v.(a1) -. v.(b1) +. w.(e) in
    let u2 = v.(a2) -. v.(b2) +. w.(e + 1) in
    i.(e) <- ((d *. u1) -. (o *. u2)) /. det;
    i.(e + 1) <- ((d *. u2) -. (o *. u1)) /. det
  end;
  let h = co.h.(e) and hm = co.g.(e + 1) and i1 = i.(e) and i2 = i.(e + 1) in
  let x1 = if trap then v.(a1) -. v.(b1) +. (h *. i1) else h *. i1 in
  let x2 = if trap then v.(a2) -. v.(b2) +. (h *. i2) else h *. i2 in
  w.(e) <- x1 +. (hm *. i2);
  w.(e + 1) <- x2 +. (hm *. i1);
  let d = co.g.(e) and o = co.g.(e + 1) and det = co.h.(e + 1) in
  let w1 = w.(e) and w2 = w.(e + 1) in
  let i1_src = ((d *. w1) -. (o *. w2)) /. det in
  let i2_src = ((d *. w2) -. (o *. w1)) /. det in
  inject eng.rhs a1 b1 (-.i1_src);
  inject eng.rhs a2 b2 (-.i2_src)

(* One pass over the table, in row order, filling eng.rhs with the
   terms of companion [co].  Without [commit] they are the step's from
   [eng.cur].  With it, each element first commits into [eng.nxt] its
   branch current of the step [advance] took with [cc] (the update
   needs the old voltages), then adds its term of the next step's RHS
   from that new state.  Each helper is inlined or takes no float, so
   nothing is boxed. *)
let sweep eng cc co ~commit =
  let c = eng.circ and cur = eng.cur and nxt = eng.nxt in
  let s = if commit then nxt else cur in
  let v = s.v and v_old = cur.v and i_old = cur.i and i_new = nxt.i in
  let tags = co.tags and g = co.g and h = co.h in
  let b = eng.rhs and ra = eng.ra and rb = eng.rb in
  Array.fill b 0 c.m 0.0;
  for e = 0 to Array.length tags - 1 do
    let a = ra.(e) and z = rb.(e) in
    let vab = v.(a) -. v.(z) in
    let old = if commit then v_old.(a) -. v_old.(z) else 0.0 in
    match tags.(e) with
    | R | Pair_2nd -> ()
    | C_trap ->
        let i = i_old.(e) in
        let i = if commit then set i_new e ((cc.g.(e) *. (vab -. old)) -. i) else i in
        inject b a z ((g.(e) *. vab) +. i)
    | C_be ->
        if commit then i_new.(e) <- cc.g.(e) *. (vab -. old);
        inject b a z ((g.(e) *. vab) +. 0.0)
    | Rl_trap ->
        let i = i_old.(e) and hc = cc.h.(e) in
        let i = if commit then set i_new e (cc.g.(e) *. (vab +. old +. (hc *. i))) else i in
        inject b a z (-.(g.(e) *. (vab +. (h.(e) *. i))))
    | Rl_be ->
        let i = i_old.(e) and hc = cc.h.(e) in
        let i = if commit then set i_new e (cc.g.(e) *. (vab +. (hc *. i))) else i in
        inject b a z (-.(g.(e) *. h.(e) *. i))
    | Pair_trap -> pair eng cc co ~commit s e ~trap:true
    | Pair_be -> pair eng cc co ~commit s e ~trap:false
    | Inv ->
        let k = c.st.(e) and dt = eng.step.dt in
        let dev = c.devs.(k) in
        let drive = slewed_drive dev ~dt s.inv_drive.(k) nxt.inv_high.(k) in
        inject b a z (1.0 /. dev.Devices.r_on *. drive)
    | V -> b.(eng.plan.Solver.perm.(c.n_nodes - 1 + c.st.(e))) <- eng.src.(c.st.(e))
    | I -> inject b a z (-.eng.src.(c.st.(e)))
  done

(* Advance [eng.cur] by the step of companion [c], [eng.step.dt] long
   and ending at [eng.step.t_next], into [eng.nxt], resolving the
   inverter logic by fixed point; the other elements' branch currents
   are committed by [accept].  [eng.cur] is left as it was, so a
   rejected step costs nothing to undo.  With [estimate], also set
   [eng.step.err] to the step's LTE estimate in units of its
   tolerance: the trapezoidal LTE is dt^3/12 |x'''|, with x''' =
   6 x[t0,t1,t2,t3] the third divided difference of the accepted
   points and the new one; 6/12 and the leading 1/(t3 - t0) fold into
   [c3]. *)
let advance eng c ~estimate =
  (* one predicted branch when recording is off *)
  let timer = if M.recording () then Some (Rlc_instr.Timer.start ()) else None in
  let circ = eng.circ and cur = eng.cur and nxt = eng.nxt and s = eng.step in
  let trial = nxt.inv_high and x = eng.x and p = eng.plan.Solver.perm in
  Array.blit cur.inv_high 0 trial 0 (Array.length trial);
  if not eng.ready then begin
    sources eng;
    sweep eng c.co c.co ~commit:false
  end;
  eng.ready <- false;
  let passes = ref 1 and stable = ref false in
  while not !stable do
    Solver.solve_permuted_into c.factor ~b:eng.rhs ~x;
    let changed = ref false in
    for k = 0 to Array.length circ.devs - 1 do
      let input = circ.inv_in.(k) in
      let v_in = if input = 0 then 0.0 else x.(p.(vi input)) in
      (* Devices.drives_high, written out: a call would box v_in *)
      let high = v_in < circ.devs.(k).Devices.vth in
      eng.trial_next.(k) <- high;
      if high <> trial.(k) then changed := true
    done;
    if not !changed then stable := true
    else if !passes < eng.max_state_iterations then begin
      (* re-solve with the updated logic states *)
      Array.blit eng.trial_next 0 trial 0 (Array.length trial);
      incr passes;
      sweep eng c.co c.co ~commit:false
    end
    else begin
      (* out of iterations: commit the trial that actually produced
         [x] — mixing the post-update trial into inv_drive/inv_high
         would pair a stale solution with fresh logic states *)
      eng.nonconverged <- eng.nonconverged + 1;
      stable := true
    end
  done;
  eng.histogram.(!passes - 1) <- eng.histogram.(!passes - 1) + 1;
  for k = 0 to Array.length circ.devs - 1 do
    nxt.inv_drive.(k) <-
      slewed_drive circ.devs.(k) ~dt:s.dt cur.inv_drive.(k) trial.(k)
  done;
  let v_new = nxt.v in
  Array.blit x 0 v_new 0 circ.m;
  s.err <- 0.0;
  if estimate then begin
    (* the largest of the per-node estimates, in node order *)
    let h0 = eng.past.(0) and h1 = eng.past.(1) and h2 = cur.v in
    let t0 = eng.past_t.(0) and t1 = eng.past_t.(1) and t2 = eng.past_t.(2) in
    let t3 = s.t_next and atol = s.atol and rtol = s.rtol in
    let dt = t3 -. t2 in
    let i10 = 1.0 /. (t1 -. t0) and i21 = 1.0 /. (t2 -. t1) in
    let i32 = 1.0 /. dt in
    let i20 = 1.0 /. (t2 -. t0) and i31 = 1.0 /. (t3 -. t1) in
    let c3 = dt *. dt *. dt /. (2.0 *. (t3 -. t0)) in
    for node = 1 to circ.n_nodes - 1 do
      let r = p.(vi node) in
      let v = x.(r) in
      let d01 = (h1.(r) -. h0.(r)) *. i10 in
      let d12 = (h2.(r) -. h1.(r)) *. i21 in
      let d23 = (v -. h2.(r)) *. i32 in
      let d3 = ((d23 -. d12) *. i31) -. ((d12 -. d01) *. i20) in
      let e = c3 *. Float.abs d3 /. (atol +. (rtol *. Float.abs v)) in
      (* Float.max, which keeps a nan, on values that are >= +0 or nan *)
      if e > s.err || Float.is_nan e then s.err <- e
    done
  end;
  (* a step's time is its advance and the accept pass before it, which
     committed the step before and built this one's RHS *)
  match timer with
  | Some t ->
      M.incr m_advances;
      M.observe m_step_s (Rlc_instr.Timer.elapsed_s t +. s.accept_s);
      s.accept_s <- 0.0
  | None -> ()

(* Commit the step [advance] took with [c] and make it the accepted
   state.  When [next], the companion of the next step (set up in
   [eng.step]), keeps the method, the same pass builds that step's RHS
   for [advance]; otherwise the RHS it leaves is never read. *)
let accept eng c next =
  let timer = if M.recording () then Some (Rlc_instr.Timer.start ()) else None in
  eng.ready <- next.co.tags == c.co.tags;
  if eng.ready then sources eng;
  sweep eng c.co (if eng.ready then next.co else c.co) ~commit:true;
  let s = eng.cur in
  eng.cur <- eng.nxt;
  eng.nxt <- s;
  match timer with
  | Some t -> eng.step.accept_s <- Rlc_instr.Timer.elapsed_s t
  | None -> ()

(* ---------------- probing ---------------- *)
(* A probe resolved once per run: the voltage at solution row [ix] when
   [row] < 0, else table row [row]'s current ([ix] a pair's branch). *)
type target = { row : int; ix : int }

let targets eng netlist probes =
  let find = Netlist.find_element netlist and of_id = eng.circ.of_id in
  let target = function
    | Node_v node ->
        if node < 0 || node >= eng.circ.n_nodes then
          invalid_arg "Transient: probe on unknown node";
        { row = -1; ix = (if node = 0 then eng.circ.m else eng.plan.Solver.perm.(vi node)) }
    | Branch_i name -> (
        (* "<pair>#1" and "<pair>#2" name a coupled pair's branches *)
        let n = String.length name in
        let hash = n > 2 && name.[n - 2] = '#' in
        let sub = if hash then Char.code name.[n - 1] - Char.code '1' else -1 in
        let pair = if sub = 0 || sub = 1 then find (String.sub name 0 (n - 2)) else None in
        match (find name, pair) with
        | Some id, _ -> { row = of_id.(id); ix = 0 }
        | None, Some id -> { row = of_id.(id); ix = sub }
        | None, None -> invalid_arg ("Transient.simulate: unknown element " ^ name))
  in
  Array.of_list (List.map target probes)

(* Write each probe's value in the accepted state to
   [bufs.(j + 1).(slot)]; [bufs.(0)] is the time axis. *)
let record eng targets bufs slot =
  let c = eng.circ and s = eng.cur in
  for j = 0 to Array.length targets - 1 do
    let { row = e; ix } = targets.(j) in
    bufs.(j + 1).(slot) <-
      (if e < 0 then s.v.(ix)
       else
         match c.tag.(e) with
         | R -> c.value.(e) *. (s.v.(eng.ra.(e)) -. s.v.(eng.rb.(e)))
         | C_trap | C_be | Rl_trap | Rl_be | Pair_trap | Pair_be | Pair_2nd ->
             s.i.(e + ix)
         | Inv ->
             let k = c.st.(e) in
             (s.inv_drive.(k) -. s.v.(eng.ra.(e))) /. c.devs.(k).Devices.r_on
         | V ->
             (* the MNA current unknown of this source in the last
                solution (zero before the first step); sign convention:
                positive flowing a -> b inside the source *)
             eng.x.(eng.plan.Solver.perm.(c.n_nodes - 1 + c.st.(e)))
         | I -> 0.0)
  done

(* The run's result from its samples; its counters go to the registry
   on the way out. *)
let finish eng probes bufs ~steps ~rejected ~forced =
  let stats =
    { Stats.steps; rejected_steps = rejected; forced_accepts = forced;
      nonconverged_steps = eng.nonconverged; lu_factorizations = eng.factorizations }
  in
  publish_stats stats;
  {
    time = bufs.(0);
    probe_data = List.mapi (fun j p -> (p, bufs.(j + 1))) probes;
    final_v =
      Array.init eng.circ.n_nodes (fun node ->
          if node = 0 then 0.0 else eng.cur.v.(eng.plan.Solver.perm.(vi node)));
    histogram = Array.copy eng.histogram;
    stats;
    structure = eng.structure;
  }

(* ---------------- fixed-step driver ---------------- *)

let simulate_impl ?(config = Config.default) netlist ~t_end ~dt ~probes =
  let { Config.integration; record_every; _ } = config in
  if t_end <= 0.0 then invalid_arg "Transient.simulate: t_end <= 0";
  if dt <= 0.0 || dt >= t_end then invalid_arg "Transient.simulate: bad dt";
  if record_every < 1 then invalid_arg "Transient.simulate: record_every < 1";
  let eng = make_engine config netlist ~top:dt ~levels:1 in
  let tg = targets eng netlist probes in
  let n_steps = int_of_float (Float.ceil (t_end /. dt)) in
  let n = (n_steps / record_every) + 1 in
  let bufs = Array.init (Array.length tg + 1) (fun _ -> Array.make n 0.0) in
  record eng tg bufs 0;
  (* the first step is backward Euler; each accept sets up the next *)
  let c = ref (companion eng Backward_euler 0) in
  for step = 1 to n_steps do
    advance eng !c ~estimate:false;
    let taken = !c in
    if step < n_steps then begin
      eng.step.t_next <- float_of_int (step + 1) *. dt;
      c := companion eng integration 0
    end;
    accept eng taken !c;
    if step mod record_every = 0 then begin
      bufs.(0).(step / record_every) <- float_of_int step *. dt;
      record eng tg bufs (step / record_every)
    end
  done;
  finish eng probes bufs ~steps:n_steps ~rejected:0 ~forced:0

let simulate ?config netlist ~t_end ~dt ~probes =
  Rlc_instr.Span.with_ "transient.simulate" (fun () ->
      simulate_impl ?config netlist ~t_end ~dt ~probes)

(* ---------------- adaptive driver ---------------- *)

(* Error control on [err], the largest per-node LTE estimate in units
   of its tolerance.  The trapezoidal LTE grows as dt^3, so doubling dt
   multiplies it by 8: a step grows one level only when that still
   lands within tolerance, and a rejected step refines by as many
   levels as bring [err] back under 1. *)
let grow_below = 0.125

let[@inline] refine_levels err =
  Int.max 1 (int_of_float (Float.ceil (Float.log2 err /. 3.0)))

let simulate_adaptive_impl ?(config = Config.default) netlist ~t_end ~dt_max
    ~probes =
  let rtol = config.Config.rtol and atol = config.Config.atol in
  if t_end <= 0.0 then invalid_arg "Transient.simulate_adaptive: t_end <= 0";
  if dt_max <= 0.0 || dt_max >= t_end then
    invalid_arg "Transient.simulate_adaptive: bad dt_max";
  if rtol <= 0.0 || atol <= 0.0 then
    invalid_arg "Transient.simulate_adaptive: tolerances must be positive";
  let dt_min =
    match config.Config.dt_min with Some d -> d | None -> dt_max /. 4096.0
  in
  if dt_min <= 0.0 || dt_min > dt_max then
    invalid_arg "Transient.simulate_adaptive: bad dt_min";
  (* One advance per attempt: backward Euler for the first step,
     trapezoidal after, each checked by its own LTE estimate.  dt is
     tracked as a level k with dt = dt_max / 2^k, so every step (except
     a final partial one reaching exactly t_end) reuses a cached LU
     factorisation.  The estimate needs three accepted points, so
     the run starts at the finest level and stays there until it has
     them. *)
  let k_max = Float.log (dt_max /. dt_min) /. Float.log 2.0 in
  let k_max = Int.max 0 (int_of_float (Float.ceil k_max)) in
  let eng = make_engine config netlist ~top:dt_max ~levels:(k_max + 1) in
  let tg = targets eng netlist probes in
  (* sample buffers, grown by doubling *)
  (* samples go to chunks small enough for the minor heap, where a short
     run's die young, and are joined at the end *)
  let chunk () = Array.make 256 0.0 in
  let bufs = Array.init (Array.length tg + 1) (fun _ -> chunk ()) in
  let full = Array.make (Array.length bufs) [] and n = ref 1 in
  record eng tg bufs 0;
  let s = eng.step and past_t = eng.past_t in
  let level = ref k_max in
  let steps = ref 0 and rejected = ref 0 and forced = ref 0 in
  (* set the next attempt's dt and end time in [s]; its companion *)
  let next meth =
    let dt_level = Float.ldexp dt_max (- !level) in
    (* only the last partial step may leave the dt_max/2^k grid *)
    let off_grid = dt_level > t_end -. s.t in
    s.dt <- (if off_grid then t_end -. s.t else dt_level);
    s.t_next <- s.t +. s.dt;
    companion eng meth (if off_grid then -1 else !level)
  in
  let c = ref (next Backward_euler) in
  while s.t < t_end -. (1e-12 *. t_end) do
    (* the estimate needs three accepted points besides the new one *)
    let estimated = !steps >= 3 in
    advance eng !c ~estimate:estimated;
    let err = s.err in
    if err <= 1.0 || !level >= k_max then begin
      if err > 1.0 then incr forced;
      incr steps;
      s.t <- s.t_next;
      if estimated && err < grow_below then level := Int.max 0 (!level - 1);
      let taken = !c in
      if s.t < t_end -. (1e-12 *. t_end) then c := next Trapezoidal;
      accept eng taken !c;
      (* the oldest history voltages take the next step's solution *)
      let oldest = eng.past.(0) in
      eng.past.(0) <- eng.past.(1);
      eng.past.(1) <- eng.nxt.v;
      eng.nxt.v <- oldest;
      Array.blit past_t 1 past_t 0 2;
      past_t.(2) <- s.t;
      if !n = 256 then begin
        Array.iteri (fun j a -> full.(j) <- a :: full.(j); bufs.(j) <- chunk ()) bufs;
        n := 0
      end;
      bufs.(0).(!n) <- s.t;
      record eng tg bufs !n;
      incr n
    end
    else begin
      incr rejected;
      level := Int.min k_max (!level + refine_levels err);
      c := next Trapezoidal
    end
  done;
  let join j a = Array.concat (List.rev (Array.sub a 0 !n :: full.(j))) in
  finish eng probes (Array.mapi join bufs) ~steps:!steps ~rejected:!rejected
    ~forced:!forced

let simulate_adaptive ?config netlist ~t_end ~dt_max ~probes =
  Rlc_instr.Span.with_ "transient.simulate_adaptive" (fun () ->
      simulate_adaptive_impl ?config netlist ~t_end ~dt_max ~probes)
