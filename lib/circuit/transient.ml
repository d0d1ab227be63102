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
    plan_hint : Solver.plan option;
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

(* Desugared element with per-element state indices. *)
type inv = {
  input : int;
  output : int;
  dev : Devices.inverter;
  state : int; (* index into the inverter state arrays and [invs] *)
}

type compiled =
  | Cr of { a : int; b : int; g : float }
  | Cc of { a : int; b : int; c : float; state : int }
  | Crl of { a : int; b : int; r : float; l : float; state : int }
  | Ccrl of {
      a1 : int;
      b1 : int;
      a2 : int;
      b2 : int;
      r : float;
      l : float;
      m : float;
      state : int; (* index of branch-1 current; branch 2 is state+1 *)
      pair : int; (* index into the coupled-pair coefficients *)
    }
  | Cv of { a : int; b : int; stim : Stimulus.t; row : int }
  | Ci of { a : int; b : int; stim : Stimulus.t }
  | Cinv of inv

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
}

let time r = Array.copy r.time
let final_voltages r = Array.copy r.final_v
let steps_taken r = r.stats.Stats.steps
let state_iteration_histogram r = Array.copy r.histogram
let stats r = r.stats

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

(* The compiled circuit: its elements in netlist order, the inverters
   listed once, the state counts and the companion system's size
   (unknowns = nodes - 1 + vsources). *)
type circuit = {
  elems : compiled array;
  of_id : (int, compiled) Hashtbl.t;
  invs : inv array;
  n_caps : int;
  n_rls : int;
  n_pairs : int;
  n_nodes : int;
  m : int;
}

(* Compile the netlist: inverters contribute their gate/drain
   capacitors as separate compiled caps plus an output-stage record. *)
let compile netlist =
  let elems = ref [] and invs = ref [] in
  let caps = ref 0 and rls = ref 0 and pairs = ref 0 and vsrcs = ref 0 in
  let n_invs = ref 0 in
  let of_id = Hashtbl.create 16 in
  let cap a b c =
    elems := Cc { a; b; c; state = !caps } :: !elems;
    incr caps
  in
  Array.iteri
    (fun id e ->
      let push c =
        elems := c :: !elems;
        Hashtbl.replace of_id id c
      in
      match e with
      | Netlist.Resistor { a; b; ohms } -> push (Cr { a; b; g = 1.0 /. ohms })
      | Netlist.Capacitor { a; b; farads } ->
          push (Cc { a; b; c = farads; state = !caps });
          incr caps
      | Netlist.Rl_branch { a; b; ohms; henries } ->
          if henries = 0.0 then push (Cr { a; b; g = 1.0 /. ohms })
          else begin
            push (Crl { a; b; r = ohms; l = henries; state = !rls });
            incr rls
          end
      | Netlist.Coupled_rl { a1; b1; a2; b2; ohms; henries; mutual } ->
          let r = ohms and l = henries and m = mutual in
          push (Ccrl { a1; b1; a2; b2; r; l; m; state = !rls; pair = !pairs });
          rls := !rls + 2;
          incr pairs
      | Netlist.Vsource { a; b; stim } ->
          push (Cv { a; b; stim; row = !vsrcs });
          incr vsrcs
      | Netlist.Isource { a; b; stim } -> push (Ci { a; b; stim })
      | Netlist.Inverter { input; output; dev } ->
          cap input Netlist.ground dev.Devices.c_in;
          cap output Netlist.ground dev.Devices.c_out;
          let inv = { input; output; dev; state = !n_invs } in
          invs := inv :: !invs;
          incr n_invs;
          push (Cinv inv))
    (Netlist.elements netlist);
  let n_nodes = Netlist.node_count netlist in
  let m = n_nodes - 1 + !vsrcs in
  if m = 0 then invalid_arg "Transient: empty circuit";
  {
    elems = Array.of_list (List.rev !elems);
    of_id;
    invs = Array.of_list (List.rev !invs);
    n_caps = !caps;
    n_rls = !rls;
    n_pairs = !pairs;
    n_nodes;
    m;
  }

let alpha_of = function Trapezoidal -> 2.0 | Backward_euler -> 1.0

(* The companion model of one (method, dt): every coefficient that the
   stamp, the RHS and the commit read, filled by [coefficients] — the
   one site of each formula — and cached with the factor of the matrix
   it stamps. *)
type coeffs = {
  cap_g : float array; (* by capacitor state: alpha c / dt *)
  rl_g : float array; (* by RL state: 1 / (r + alpha l / dt) *)
  rl_hist : float array; (* by RL state: 2 l / dt - r, or l / dt (BE) *)
  pair_d : float array; (* by pair: r + alpha l / dt *)
  pair_o : float array; (* alpha m / dt *)
  pair_det : float array; (* d^2 - o^2 *)
  pair_mut : float array; (* 2 m / dt, or m / dt (BE) *)
}

type companion = { co : coeffs; factor : Solver.factor }

let coefficients circ meth dt =
  let alpha = alpha_of meth and trap = meth = Trapezoidal in
  let series r l = r +. (alpha *. l /. dt) in
  let hist r l = if trap then (2.0 *. l /. dt) -. r else l /. dt in
  let per n = Array.make (Int.max n 1) 0.0 in
  let cap_g = per circ.n_caps in
  let rl_g = per circ.n_rls and rl_hist = per circ.n_rls in
  let pair_d = per circ.n_pairs and pair_o = per circ.n_pairs in
  let pair_det = per circ.n_pairs and pair_mut = per circ.n_pairs in
  Array.iter
    (function
      | Cc { c; state; _ } -> cap_g.(state) <- alpha *. c /. dt
      | Crl { r; l; state; _ } ->
          rl_g.(state) <- 1.0 /. series r l;
          rl_hist.(state) <- hist r l
      | Ccrl { r; l; m; state; pair; _ } ->
          let d = series r l and o = alpha *. m /. dt in
          pair_d.(pair) <- d;
          pair_o.(pair) <- o;
          pair_det.(pair) <- (d *. d) -. (o *. o);
          pair_mut.(pair) <- (if trap then 2.0 *. m /. dt else m /. dt);
          rl_hist.(state) <- hist r l
      | Cr _ | Cv _ | Ci _ | Cinv _ -> ())
    circ.elems;
  { cap_g; rl_g; rl_hist; pair_d; pair_o; pair_det; pair_mut }

(* mutable engine state *)
type state = {
  v : float array;
  cap_i : float array;
  rl_i : float array;
  inv_high : bool array;
  inv_drive : float array;
}

let copy_state s =
  {
    v = Array.copy s.v;
    cap_i = Array.copy s.cap_i;
    rl_i = Array.copy s.rl_i;
    inv_high = Array.copy s.inv_high;
    inv_drive = Array.copy s.inv_drive;
  }

let blit_state ~src ~dst =
  Array.blit src.v 0 dst.v 0 (Array.length src.v);
  Array.blit src.cap_i 0 dst.cap_i 0 (Array.length src.cap_i);
  Array.blit src.rl_i 0 dst.rl_i 0 (Array.length src.rl_i);
  Array.blit src.inv_high 0 dst.inv_high 0 (Array.length src.inv_high);
  Array.blit src.inv_drive 0 dst.inv_drive 0 (Array.length src.inv_drive)

type engine = {
  circ : circuit;
  netlist : Netlist.t;
  plan : Solver.plan; (* shared structure analysis: RCM + bandwidth *)
  perm : int array; (* = plan.perm, kept flat for the hot loops *)
  state : state;
  lu_cache : (integration * int64, companion) Hashtbl.t;
      (* keyed by the integration method and the exact dt bits *)
  rhs : float array; (* preallocated per-step buffers: *)
  x : float array; (* last MNA solution, in permuted order *)
  v_new : float array;
  rl_w : float array; (* by RL state: coupled history of the last RHS *)
  trial : bool array;
  trial_next : bool array;
  histogram : int array;
  max_state_iterations : int;
  mutable nonconverged : int;
  mutable factorizations : int;
  mutable sparse_sym : Solver.symbolic option;
      (* the sparse backend's symbolic analysis, discovered by the
         first factorisation and replayed by every later (method, dt)
         restamp — the companion pattern never changes, only values *)
}

let vi node = node - 1

(* Stamp a companion model's MNA matrix into a fresh COO accumulator.
   The conductance/cross patterns come from {!Assembly.Coo} — the one
   stamping implementation — and the values from [co]; only the
   closed-form 2x2 coupled-RL inverse is formed here.  The
   voltage-source rows stay in the engine's historical symmetric form
   (+1/+1), which differs from the frequency-domain skew convention but
   yields the same solutions. *)
let stamp_coo (circ : circuit) co =
  let coo = Assembly.Coo.create ~size:circ.m in
  Array.iter
    (fun c ->
      match c with
      | Cr { a = na; b = nb; g } -> Assembly.Coo.stamp_g coo na nb g
      | Cc { a = na; b = nb; state; _ } ->
          Assembly.Coo.stamp_g coo na nb co.cap_g.(state)
      | Crl { a = na; b = nb; state; _ } ->
          Assembly.Coo.stamp_g coo na nb co.rl_g.(state)
      | Ccrl { a1; b1; a2; b2; pair; _ } ->
          (* i = G v with G = inv(R I + alpha L_mat / dt),
             L_mat = [l m; m l] *)
          let det = co.pair_det.(pair) in
          let g_self = co.pair_d.(pair) /. det
          and g_cross = -.co.pair_o.(pair) /. det in
          Assembly.Coo.stamp_g coo a1 b1 g_self;
          Assembly.Coo.stamp_g coo a2 b2 g_self;
          Assembly.Coo.stamp_cross coo ~a:a1 ~b:b1 ~ma:a2 ~mb:b2 g_cross;
          Assembly.Coo.stamp_cross coo ~a:a2 ~b:b2 ~ma:a1 ~mb:b1 g_cross
      | Cinv { output; dev; _ } ->
          Assembly.Coo.stamp_g coo output Netlist.ground
            (1.0 /. dev.Devices.r_on)
      | Cv { a = na; b = nb; row; _ } ->
          let r = circ.n_nodes - 1 + row in
          if na <> 0 then begin
            Assembly.Coo.stamp_at coo (vi na) r 1.0;
            Assembly.Coo.stamp_at coo r (vi na) 1.0
          end;
          if nb <> 0 then begin
            Assembly.Coo.stamp_at coo (vi nb) r (-1.0);
            Assembly.Coo.stamp_at coo r (vi nb) (-1.0)
          end
      | Ci _ -> ())
    circ.elems;
  coo

(* Compile and plan: the one path of every engine and of
   [structure_plan], which the serving layer computes once per
   structural family and feeds back as [Config.plan_hint] (the
   *companion* system's plan, distinct from the MNA plan of
   {!Assembly.of_netlist}).  The companion structure is dt-independent,
   so one probe stamp (any positive dt) gives the adjacency the shared
   plan (RCM ordering + bandwidth + backend choice) is built from; a
   [hint] sized for this system skips the probe and the ordering. *)
let structure ?hint ~backend netlist =
  let circ = compile netlist in
  match hint with
  | Some p when p.Solver.n = circ.m -> (circ, p)
  | Some _ | None ->
      let probe = stamp_coo circ (coefficients circ Trapezoidal 1.0) in
      (circ, Solver.plan ~backend (Assembly.Coo.adjacency probe))

let structure_plan ?(backend = Auto) netlist = snd (structure ~backend netlist)

let make_engine (config : Config.t) netlist =
  let max_state_iterations = config.Config.max_state_iterations in
  if max_state_iterations < 1 then
    invalid_arg "Transient: max_state_iterations < 1";
  let circ, plan =
    structure ?hint:config.Config.plan_hint ~backend:config.Config.backend
      netlist
  in
  let n_nodes = circ.n_nodes and n_invs = Array.length circ.invs in
  let state =
    {
      v = Array.make n_nodes 0.0;
      cap_i = Array.make (Int.max circ.n_caps 1) 0.0;
      rl_i = Array.make (Int.max circ.n_rls 1) 0.0;
      inv_high = Array.make (Int.max n_invs 1) false;
      inv_drive = Array.make (Int.max n_invs 1) 0.0;
    }
  in
  List.iter
    (fun (node, volt) ->
      if node <= 0 || node >= n_nodes then
        invalid_arg "Transient: initial voltage on bad node";
      state.v.(node) <- volt)
    config.Config.initial_voltages;
  Array.iter
    (fun { input; dev; state = si; _ } ->
      let high = Devices.drives_high dev ~v_in:state.v.(input) in
      state.inv_high.(si) <- high;
      state.inv_drive.(si) <- (if high then dev.Devices.vdd else 0.0))
    circ.invs;
  {
    circ;
    netlist;
    plan;
    perm = plan.Solver.perm;
    state;
    lu_cache = Hashtbl.create 8;
    rhs = Array.make circ.m 0.0;
    x = Array.make circ.m 0.0;
    v_new = Array.make n_nodes 0.0;
    rl_w = Array.make (Int.max circ.n_rls 1) 0.0;
    trial = Array.make (Int.max n_invs 1) false;
    trial_next = Array.make (Int.max n_invs 1) false;
    histogram = Array.make max_state_iterations 0;
    max_state_iterations;
    nonconverged = 0;
    factorizations = 0;
    sparse_sym = None;
  }

(* The companion cache is keyed by the (method, dt-bits) pair itself —
   never by its hash, where a collision between two distinct dt values
   would silently reuse the wrong factorisation.  The adaptive driver
   keeps dt on the dt_max/2^k grid, so the cache stays tiny; the
   eviction below is a backstop for pathological callers. *)
let lu_cache_limit = 64

let factorization eng meth dt =
  let key = (meth, Int64.bits_of_float dt) in
  match Hashtbl.find_opt eng.lu_cache key with
  | Some c ->
      M.incr m_cache_hit;
      c
  | None ->
      M.incr m_cache_miss;
      let co = coefficients eng.circ meth dt in
      let coo = stamp_coo eng.circ co in
      let factor =
        try
          Solver.factor ?symbolic:eng.sparse_sym eng.plan
            ~fill:(Assembly.Coo.iter coo)
        with Solver.Singular ->
          failwith "Transient: singular MNA matrix"
      in
      if eng.sparse_sym = None then eng.sparse_sym <- Solver.symbolic_of factor;
      if Hashtbl.length eng.lu_cache >= lu_cache_limit then
        Hashtbl.reset eng.lu_cache;
      let c = { co; factor } in
      Hashtbl.replace eng.lu_cache key c;
      eng.factorizations <- eng.factorizations + 1;
      c

let slewed_drive dev ~dt current target_high =
  let target = if target_high then dev.Devices.vdd else 0.0 in
  if dev.Devices.t_transition <= 0.0 then target
  else begin
    let max_step = dev.Devices.vdd *. dt /. dev.Devices.t_transition in
    let delta = target -. current in
    if Float.abs delta <= max_step then target
    else current +. Float.copy_sign max_step delta
  end

(* Fill eng.rhs in place (permuted positions), accumulating in element
   order.  Every branch voltage is read inline and every companion term
   is its own float binding: a float-returning helper or a tuple would
   box on each element and pass.  The coupled-pair history voltages go
   to [eng.rl_w] for the commit. *)
let build_rhs eng co meth dt t_next trial =
  let s = eng.state in
  let b = eng.rhs in
  let p = eng.perm in
  let w = eng.rl_w in
  Array.fill b 0 eng.circ.m 0.0;
  Array.iter
    (fun c ->
      match c with
      | Cr _ -> ()
      | Cc { a = na; b = nb; state; _ } ->
          let i_src =
            (co.cap_g.(state) *. (s.v.(na) -. s.v.(nb)))
            +. (match meth with
               | Trapezoidal -> s.cap_i.(state)
               | Backward_euler -> 0.0)
          in
          if na <> 0 then b.(p.(vi na)) <- b.(p.(vi na)) +. i_src;
          if nb <> 0 then b.(p.(vi nb)) <- b.(p.(vi nb)) -. i_src
      | Crl { a = na; b = nb; state; _ } ->
          let g = co.rl_g.(state) and h = co.rl_hist.(state) in
          let i_src =
            match meth with
            | Trapezoidal ->
                g *. (s.v.(na) -. s.v.(nb) +. (h *. s.rl_i.(state)))
            | Backward_euler -> g *. h *. s.rl_i.(state)
          in
          if na <> 0 then b.(p.(vi na)) <- b.(p.(vi na)) -. i_src;
          if nb <> 0 then b.(p.(vi nb)) <- b.(p.(vi nb)) +. i_src
      | Ccrl { a1; b1; a2; b2; state; pair; _ } ->
          let d = co.pair_d.(pair) and o = co.pair_o.(pair) in
          let det = co.pair_det.(pair) in
          let h = co.rl_hist.(state) and hm = co.pair_mut.(pair) in
          let i1 = s.rl_i.(state) and i2 = s.rl_i.(state + 1) in
          (match meth with
          | Trapezoidal ->
              w.(state) <- s.v.(a1) -. s.v.(b1) +. (h *. i1) +. (hm *. i2);
              w.(state + 1) <- s.v.(a2) -. s.v.(b2) +. (h *. i2) +. (hm *. i1)
          | Backward_euler ->
              w.(state) <- (h *. i1) +. (hm *. i2);
              w.(state + 1) <- (h *. i2) +. (hm *. i1));
          let w1 = w.(state) and w2 = w.(state + 1) in
          let i1_src = ((d *. w1) -. (o *. w2)) /. det in
          let i2_src = ((d *. w2) -. (o *. w1)) /. det in
          if a1 <> 0 then b.(p.(vi a1)) <- b.(p.(vi a1)) -. i1_src;
          if b1 <> 0 then b.(p.(vi b1)) <- b.(p.(vi b1)) +. i1_src;
          if a2 <> 0 then b.(p.(vi a2)) <- b.(p.(vi a2)) -. i2_src;
          if b2 <> 0 then b.(p.(vi b2)) <- b.(p.(vi b2)) +. i2_src
      | Cinv { output; dev; state; _ } ->
          let v_drive =
            slewed_drive dev ~dt s.inv_drive.(state) trial.(state)
          in
          let g = 1.0 /. dev.Devices.r_on in
          if output <> 0 then
            b.(p.(vi output)) <- b.(p.(vi output)) +. (g *. v_drive)
      | Cv { row; stim; _ } ->
          b.(p.(eng.circ.n_nodes - 1 + row)) <- Stimulus.eval stim t_next
      | Ci { a = na; b = nb; stim } ->
          let j = Stimulus.eval stim t_next in
          if na <> 0 then b.(p.(vi na)) <- b.(p.(vi na)) -. j;
          if nb <> 0 then b.(p.(vi nb)) <- b.(p.(vi nb)) +. j)
    eng.circ.elems

(* Advance the engine state by one step of [dt] ending at [t_next],
   resolving the inverter logic by fixed point.  Mutates eng.state and
   the engine's scratch buffers; allocates nothing per step. *)
let advance_raw eng meth dt t_next =
  let s = eng.state in
  let { co; factor } = factorization eng meth dt in
  let trial = eng.trial in
  Array.blit s.inv_high 0 trial 0 (Array.length s.inv_high);
  let x = eng.x in
  let p = eng.perm in
  let passes = ref 0 in
  let stable = ref false in
  while (not !stable) && !passes < eng.max_state_iterations do
    incr passes;
    build_rhs eng co meth dt t_next trial;
    Solver.solve_permuted_into factor ~b:eng.rhs ~x;
    let changed = ref false in
    Array.iter
      (fun { input; dev; state; _ } ->
        let v_in = if input = 0 then 0.0 else x.(p.(vi input)) in
        let high = Devices.drives_high dev ~v_in in
        eng.trial_next.(state) <- high;
        if high <> trial.(state) then changed := true)
      eng.circ.invs;
    if not !changed then stable := true
    else if !passes < eng.max_state_iterations then
      (* re-solve with the updated logic states *)
      Array.blit eng.trial_next 0 trial 0 (Array.length trial)
    else
      (* out of iterations: commit the trial that actually produced
         [x] — mixing the post-update trial into inv_drive/inv_high
         would pair a stale solution with fresh logic states *)
      eng.nonconverged <- eng.nonconverged + 1
  done;
  eng.histogram.(!passes - 1) <- eng.histogram.(!passes - 1) + 1;
  let v_new = eng.v_new in
  v_new.(0) <- 0.0;
  for node = 1 to eng.circ.n_nodes - 1 do
    v_new.(node) <- x.(p.(vi node))
  done;
  (* commit branch states (companion updates need the OLD voltages) *)
  Array.iter
    (fun c ->
      match c with
      | Cc { a = na; b = nb; state; _ } ->
          let g = co.cap_g.(state) in
          let old_vab = s.v.(na) -. s.v.(nb) in
          let new_vab = v_new.(na) -. v_new.(nb) in
          s.cap_i.(state) <-
            (match meth with
            | Trapezoidal -> (g *. (new_vab -. old_vab)) -. s.cap_i.(state)
            | Backward_euler -> g *. (new_vab -. old_vab))
      | Crl { a = na; b = nb; state; _ } ->
          let g = co.rl_g.(state) and h = co.rl_hist.(state) in
          let old_vab = s.v.(na) -. s.v.(nb) in
          let new_vab = v_new.(na) -. v_new.(nb) in
          s.rl_i.(state) <-
            (match meth with
            | Trapezoidal -> g *. (new_vab +. old_vab +. (h *. s.rl_i.(state)))
            | Backward_euler -> g *. (new_vab +. (h *. s.rl_i.(state))))
      | Ccrl { a1; b1; a2; b2; state; pair; _ } ->
          let d = co.pair_d.(pair) and o = co.pair_o.(pair) in
          let det = co.pair_det.(pair) in
          let u1 = (v_new.(a1) -. v_new.(b1)) +. eng.rl_w.(state) in
          let u2 = (v_new.(a2) -. v_new.(b2)) +. eng.rl_w.(state + 1) in
          s.rl_i.(state) <- ((d *. u1) -. (o *. u2)) /. det;
          s.rl_i.(state + 1) <- ((d *. u2) -. (o *. u1)) /. det
      | Cr _ | Cv _ | Ci _ | Cinv _ -> ())
    eng.circ.elems;
  Array.iter
    (fun { dev; state; _ } ->
      s.inv_drive.(state) <-
        slewed_drive dev ~dt s.inv_drive.(state) trial.(state))
    eng.circ.invs;
  Array.blit v_new 0 s.v 0 eng.circ.n_nodes;
  Array.blit trial 0 s.inv_high 0 (Array.length trial)

(* hot loop: one predicted branch when recording is off *)
let advance eng meth dt t_next =
  if M.recording () then begin
    M.incr m_advances;
    let t0 = Rlc_instr.Timer.start () in
    advance_raw eng meth dt t_next;
    M.observe m_step_s (Rlc_instr.Timer.elapsed_s t0)
  end
  else advance_raw eng meth dt t_next

(* ---------------- probing ---------------- *)

let resolve_probe_element eng name =
  match Netlist.find_element eng.netlist name with
  | Some id -> Some (id, 0)
  | None ->
      let n = String.length name in
      if
        n > 2
        && name.[n - 2] = '#'
        && (name.[n - 1] = '1' || name.[n - 1] = '2')
      then
        match Netlist.find_element eng.netlist (String.sub name 0 (n - 2)) with
        | Some id -> Some (id, Char.code name.[n - 1] - Char.code '1')
        | None -> None
      else None

let branch_current eng name =
  let s = eng.state in
  match resolve_probe_element eng name with
  | None -> 0.0
  | Some (id, sub) -> begin
      match Hashtbl.find_opt eng.circ.of_id id with
      | Some (Cr { a; b; g }) -> g *. (s.v.(a) -. s.v.(b))
      | Some (Cc { state; _ }) -> s.cap_i.(state)
      | Some (Crl { state; _ }) -> s.rl_i.(state)
      | Some (Ccrl { state; _ }) -> s.rl_i.(state + sub)
      | Some (Cinv { output; dev; state; _ }) ->
          (s.inv_drive.(state) -. s.v.(output)) /. dev.Devices.r_on
      | Some (Cv { row; _ }) ->
          (* the MNA current unknown of this source in the last
             solution (zero before the first step); sign convention:
             positive flowing a -> b inside the source *)
          eng.x.(eng.perm.(eng.circ.n_nodes - 1 + row))
      | Some (Ci _) | None -> 0.0
    end

let probe_value eng = function
  | Node_v node -> eng.state.v.(node)
  | Branch_i name -> branch_current eng name

let validate_probes eng probes =
  List.iter
    (fun p ->
      match p with
      | Node_v node ->
          if node < 0 || node >= eng.circ.n_nodes then
            invalid_arg "Transient: probe on unknown node"
      | Branch_i name ->
          if resolve_probe_element eng name = None then
            invalid_arg ("Transient.simulate: unknown element " ^ name))
    probes

(* The run's result; its counters go to the registry on the way out. *)
let finish eng ~time ~probe_data ~steps ~rejected ~forced =
  let stats =
    {
      Stats.steps;
      rejected_steps = rejected;
      forced_accepts = forced;
      nonconverged_steps = eng.nonconverged;
      lu_factorizations = eng.factorizations;
    }
  in
  publish_stats stats;
  {
    time;
    probe_data;
    final_v = Array.copy eng.state.v;
    histogram = Array.copy eng.histogram;
    stats;
  }

(* ---------------- fixed-step driver ---------------- *)

let simulate_impl ?(config = Config.default) netlist ~t_end ~dt ~probes =
  let integration = config.Config.integration in
  let record_every = config.Config.record_every in
  if t_end <= 0.0 then invalid_arg "Transient.simulate: t_end <= 0";
  if dt <= 0.0 || dt >= t_end then invalid_arg "Transient.simulate: bad dt";
  if record_every < 1 then invalid_arg "Transient.simulate: record_every < 1";
  let eng = make_engine config netlist in
  validate_probes eng probes;
  let n_steps = int_of_float (Float.ceil (t_end /. dt)) in
  let n_records = (n_steps / record_every) + 1 in
  let probe_specs = List.map (fun p -> (p, Array.make n_records 0.0)) probes in
  let times = Array.make n_records 0.0 in
  let record slot =
    List.iter (fun (p, arr) -> arr.(slot) <- probe_value eng p) probe_specs
  in
  record 0;
  for step = 1 to n_steps do
    let meth = if step = 1 then Backward_euler else integration in
    advance eng meth dt (float_of_int step *. dt);
    if step mod record_every = 0 then begin
      times.(step / record_every) <- float_of_int step *. dt;
      record (step / record_every)
    end
  done;
  finish eng ~time:times ~probe_data:probe_specs ~steps:n_steps ~rejected:0
    ~forced:0

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

let refine_levels err =
  Int.max 1 (int_of_float (Float.ceil (Float.log2 err /. 3.0)))

(* Accepted points the estimator needs besides the new solution. *)
let history = 3

(* Largest per-node trapezoidal LTE of the step ending at [t3] with
   node voltages [v], in units of [atol + rtol |v|]: LTE = dt^3/12
   |x'''| with x''' = 6 x[t0,t1,t2,t3], the third divided difference
   of the accepted points [past] (oldest first) at times [past_t] and
   the new point.  6/12 and the leading 1/(t3 - t0) fold into [c]. *)
let lte_error ~rtol ~atol ~past ~past_t v t3 =
  let h0 = past.(0) and h1 = past.(1) and h2 = past.(2) in
  let t0 = past_t.(0) and t1 = past_t.(1) and t2 = past_t.(2) in
  let dt = t3 -. t2 in
  let i10 = 1.0 /. (t1 -. t0) and i21 = 1.0 /. (t2 -. t1) in
  let i32 = 1.0 /. dt in
  let i20 = 1.0 /. (t2 -. t0) and i31 = 1.0 /. (t3 -. t1) in
  let c = dt *. dt *. dt /. (2.0 *. (t3 -. t0)) in
  let err = ref 0.0 in
  for node = 1 to Array.length v - 1 do
    let d01 = (h1.(node) -. h0.(node)) *. i10 in
    let d12 = (h2.(node) -. h1.(node)) *. i21 in
    let d23 = (v.(node) -. h2.(node)) *. i32 in
    let d3 = ((d23 -. d12) *. i31) -. ((d12 -. d01) *. i20) in
    let scale = atol +. (rtol *. Float.abs v.(node)) in
    err := Float.max !err (c *. Float.abs d3 /. scale)
  done;
  !err

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
  let eng = make_engine config netlist in
  validate_probes eng probes;
  (* One advance per attempt: backward Euler for the first step,
     trapezoidal after, each checked by its own LTE estimate.  dt is
     tracked as a level k with dt = dt_max / 2^k, so every step (except
     a final partial one reaching exactly t_end) reuses a cached LU
     factorisation.  The estimate needs [history] accepted points, so
     the run starts at the finest level and stays there until it has
     them. *)
  let k_max =
    Int.max 0
      (int_of_float
         (Float.ceil (Float.log (dt_max /. dt_min) /. Float.log 2.0)))
  in
  let n = eng.circ.n_nodes in
  (* the last accepted node voltages, oldest first, and their times *)
  let past = Array.init history (fun _ -> Array.make n 0.0) in
  let past_t = Array.make history 0.0 in
  let times = ref [ 0.0 ] in
  let data = List.map (fun p -> (p, ref [ probe_value eng p ])) probes in
  let record t =
    times := t :: !times;
    List.iter (fun (p, acc) -> acc := probe_value eng p :: !acc) data
  in
  let t = ref 0.0 in
  let level = ref k_max in
  let steps = ref 0 and rejected = ref 0 and forced = ref 0 in
  let saved = copy_state eng.state in
  while !t < t_end -. (1e-12 *. t_end) do
    let dt_level = Float.ldexp dt_max (- !level) in
    let remaining = t_end -. !t in
    (* only the last partial step may leave the dt_max/2^k grid *)
    let dt_now = if dt_level > remaining then remaining else dt_level in
    let t_next = !t +. dt_now in
    let meth = if !steps = 0 then Backward_euler else Trapezoidal in
    blit_state ~src:eng.state ~dst:saved;
    advance eng meth dt_now t_next;
    let estimated = !steps >= history in
    let err =
      if not estimated then 0.0
      else
        lte_error ~rtol ~atol ~past ~past_t eng.state.v t_next
    in
    if err <= 1.0 || !level >= k_max then begin
      if err > 1.0 then incr forced;
      incr steps;
      t := t_next;
      record !t;
      (* the oldest history buffer takes the new point *)
      let oldest = past.(0) in
      Array.blit past 1 past 0 (history - 1);
      Array.blit past_t 1 past_t 0 (history - 1);
      past.(history - 1) <- oldest;
      past_t.(history - 1) <- t_next;
      Array.blit eng.state.v 0 oldest 0 n;
      if estimated && err < grow_below then level := Int.max 0 (!level - 1)
    end
    else begin
      incr rejected;
      blit_state ~src:saved ~dst:eng.state;
      level := Int.min k_max (!level + refine_levels err)
    end
  done;
  finish eng
    ~time:(Array.of_list (List.rev !times))
    ~probe_data:
      (List.map (fun (p, acc) -> (p, Array.of_list (List.rev !acc))) data)
    ~steps:!steps ~rejected:!rejected ~forced:!forced

let simulate_adaptive ?config netlist ~t_end ~dt_max ~probes =
  Rlc_instr.Span.with_ "transient.simulate_adaptive" (fun () ->
      simulate_adaptive_impl ?config netlist ~t_end ~dt_max ~probes)
