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
    }
  | Cv of { a : int; b : int; stim : Stimulus.t; row : int }
  | Ci of { a : int; b : int; stim : Stimulus.t }
  | Cinv of {
      input : int;
      output : int;
      dev : Devices.inverter;
      state : int; (* index into inverter state array *)
    }

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

(* Compile the netlist: inverters contribute their gate/drain
   capacitors as separate compiled caps plus an output-stage record. *)
let compile netlist =
  let elems = Netlist.elements netlist in
  let compiled = ref [] in
  let caps = ref 0 and rls = ref 0 and vsrcs = ref 0 and invs = ref 0 in
  let id_to_compiled = Hashtbl.create 16 in
  Array.iteri
    (fun id e ->
      let push c =
        compiled := c :: !compiled;
        Hashtbl.replace id_to_compiled id c
      in
      match e with
      | Netlist.Resistor { a; b; ohms } -> push (Cr { a; b; g = 1.0 /. ohms })
      | Netlist.Capacitor { a; b; farads } ->
          let state = !caps in
          incr caps;
          push (Cc { a; b; c = farads; state })
      | Netlist.Rl_branch { a; b; ohms; henries } ->
          if henries = 0.0 then push (Cr { a; b; g = 1.0 /. ohms })
          else begin
            let state = !rls in
            incr rls;
            push (Crl { a; b; r = ohms; l = henries; state })
          end
      | Netlist.Coupled_rl { a1; b1; a2; b2; ohms; henries; mutual } ->
          let state = !rls in
          rls := !rls + 2;
          push
            (Ccrl { a1; b1; a2; b2; r = ohms; l = henries; m = mutual; state })
      | Netlist.Vsource { a; b; stim } ->
          let row = !vsrcs in
          incr vsrcs;
          push (Cv { a; b; stim; row })
      | Netlist.Isource { a; b; stim } -> push (Ci { a; b; stim })
      | Netlist.Inverter { input; output; dev } ->
          (* gate capacitance *)
          let gate_state = !caps in
          incr caps;
          compiled :=
            Cc { a = input; b = Netlist.ground; c = dev.Devices.c_in;
                 state = gate_state }
            :: !compiled;
          (* drain capacitance *)
          let drain_state = !caps in
          incr caps;
          compiled :=
            Cc { a = output; b = Netlist.ground; c = dev.Devices.c_out;
                 state = drain_state }
            :: !compiled;
          let state = !invs in
          incr invs;
          push (Cinv { input; output; dev; state }))
    elems;
  ( Array.of_list (List.rev !compiled),
    id_to_compiled,
    (!caps, !rls, !vsrcs, !invs) )

let alpha_of = function Trapezoidal -> 2.0 | Backward_euler -> 1.0

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
  compiled : compiled array;
  compiled_of_id : (int, compiled) Hashtbl.t;
  netlist : Netlist.t;
  n_nodes : int;
  m : int; (* unknown count: nodes-1 + vsources *)
  plan : Solver.plan; (* shared structure analysis: RCM + bandwidth *)
  perm : int array; (* = plan.perm, kept flat for the hot loops *)
  state : state;
  lu_cache : (integration * int64, Solver.factor) Hashtbl.t;
      (* keyed by the integration method and the exact dt bits *)
  rhs : float array; (* preallocated per-step buffers: *)
  x : float array; (* last MNA solution, in permuted order *)
  v_new : float array;
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

(* Stamp the (method, dt) companion-model MNA matrix into a fresh COO
   accumulator.  The conductance/cross patterns come from
   {!Assembly.Coo} — the one stamping implementation — only the
   companion values (alpha C / dt, the closed-form 2x2 coupled-RL
   inverse) are computed here.  The voltage-source rows stay in the
   engine's historical symmetric form (+1/+1), which differs from the
   frequency-domain skew convention but yields the same solutions. *)
let stamp_coo ~compiled ~n_nodes ~m meth dt =
  let alpha = alpha_of meth in
  let coo = Assembly.Coo.create ~size:m in
  Array.iter
    (fun c ->
      match c with
      | Cr { a = na; b = nb; g } -> Assembly.Coo.stamp_g coo na nb g
      | Cc { a = na; b = nb; c; _ } ->
          Assembly.Coo.stamp_g coo na nb (alpha *. c /. dt)
      | Crl { a = na; b = nb; r; l; _ } ->
          Assembly.Coo.stamp_g coo na nb (1.0 /. (r +. (alpha *. l /. dt)))
      | Ccrl { a1; b1; a2; b2; r; l; m; _ } ->
          (* i = G v with G = inv(R I + alpha L_mat / dt),
             L_mat = [l m; m l]; closed-form 2x2 inverse *)
          let d = r +. (alpha *. l /. dt) in
          let o = alpha *. m /. dt in
          let det = (d *. d) -. (o *. o) in
          let g_self = d /. det and g_cross = -.o /. det in
          Assembly.Coo.stamp_g coo a1 b1 g_self;
          Assembly.Coo.stamp_g coo a2 b2 g_self;
          Assembly.Coo.stamp_cross coo ~a:a1 ~b:b1 ~ma:a2 ~mb:b2 g_cross;
          Assembly.Coo.stamp_cross coo ~a:a2 ~b:b2 ~ma:a1 ~mb:b1 g_cross
      | Cinv { output; dev; _ } ->
          Assembly.Coo.stamp_g coo output Netlist.ground
            (1.0 /. dev.Devices.r_on)
      | Cv { a = na; b = nb; row; _ } ->
          let r = n_nodes - 1 + row in
          if na <> 0 then begin
            Assembly.Coo.stamp_at coo (vi na) r 1.0;
            Assembly.Coo.stamp_at coo r (vi na) 1.0
          end;
          if nb <> 0 then begin
            Assembly.Coo.stamp_at coo (vi nb) r (-1.0);
            Assembly.Coo.stamp_at coo r (vi nb) (-1.0)
          end
      | Ci _ -> ())
    compiled;
  coo

let make_engine (config : Config.t) netlist =
  let max_state_iterations = config.Config.max_state_iterations in
  let initial_voltages = config.Config.initial_voltages in
  let backend = config.Config.backend in
  if max_state_iterations < 1 then
    invalid_arg "Transient: max_state_iterations < 1";
  let n_nodes = Netlist.node_count netlist in
  let compiled, compiled_of_id, (n_caps, n_rls, n_vsrcs, n_invs) =
    compile netlist
  in
  let m = n_nodes - 1 + n_vsrcs in
  if m = 0 then invalid_arg "Transient: empty circuit";
  let state =
    {
      v = Array.make n_nodes 0.0;
      cap_i = Array.make (Int.max n_caps 1) 0.0;
      rl_i = Array.make (Int.max n_rls 1) 0.0;
      inv_high = Array.make (Int.max n_invs 1) false;
      inv_drive = Array.make (Int.max n_invs 1) 0.0;
    }
  in
  List.iter
    (fun (node, volt) ->
      if node <= 0 || node >= n_nodes then
        invalid_arg "Transient: initial voltage on bad node";
      state.v.(node) <- volt)
    initial_voltages;
  Array.iter
    (function
      | Cinv { input; dev; state = si; _ } ->
          let high = Devices.drives_high dev ~v_in:state.v.(input) in
          state.inv_high.(si) <- high;
          state.inv_drive.(si) <- (if high then dev.Devices.vdd else 0.0)
      | Cr _ | Cc _ | Crl _ | Ccrl _ | Cv _ | Ci _ -> ())
    compiled;
  (* structural probe (any positive dt): the companion structure is
     dt-independent, so one stamp gives the adjacency the shared plan
     (RCM ordering + bandwidth + backend choice) is built from.  A
     [plan_hint] sized for this system (from {!structure_plan} on a
     structurally identical deck — the serving layer's cache) skips
     the probe stamp and the ordering entirely. *)
  let plan =
    match config.Config.plan_hint with
    | Some p when p.Solver.n = m -> p
    | Some _ | None ->
        let probe = stamp_coo ~compiled ~n_nodes ~m Trapezoidal 1.0 in
        Solver.plan ~backend (Assembly.Coo.adjacency probe)
  in
  {
    compiled;
    compiled_of_id;
    netlist;
    n_nodes;
    m;
    plan;
    perm = plan.Solver.perm;
    state;
    lu_cache = Hashtbl.create 8;
    rhs = Array.make m 0.0;
    x = Array.make m 0.0;
    v_new = Array.make n_nodes 0.0;
    trial = Array.make (Int.max n_invs 1) false;
    trial_next = Array.make (Int.max n_invs 1) false;
    histogram = Array.make max_state_iterations 0;
    max_state_iterations;
    nonconverged = 0;
    factorizations = 0;
    sparse_sym = None;
  }

(* The engine's structure analysis without an engine: what the serving
   layer computes once per structural family and feeds back through
   [Config.plan_hint].  Note this is the *companion* system's plan
   (unknowns = nodes - 1 + vsources), distinct from the MNA plan of
   {!Assembly.of_netlist}. *)
let structure_plan ?(backend = Auto) netlist =
  let n_nodes = Netlist.node_count netlist in
  let compiled, _, (_, _, n_vsrcs, _) = compile netlist in
  let m = n_nodes - 1 + n_vsrcs in
  if m = 0 then invalid_arg "Transient: empty circuit";
  let probe = stamp_coo ~compiled ~n_nodes ~m Trapezoidal 1.0 in
  Solver.plan ~backend (Assembly.Coo.adjacency probe)

(* The factorisation cache is keyed by the (method, dt-bits) pair
   itself — never by its hash, where a collision between two distinct
   dt values would silently reuse the wrong factorisation.  The
   adaptive driver keeps dt on the dt_max/2^k grid, so the cache stays
   tiny; the eviction below is a backstop for pathological callers. *)
let lu_cache_limit = 64

let factorization eng meth dt =
  let key = (meth, Int64.bits_of_float dt) in
  match Hashtbl.find_opt eng.lu_cache key with
  | Some f ->
      M.incr m_cache_hit;
      f
  | None ->
      M.incr m_cache_miss;
      let coo =
        stamp_coo ~compiled:eng.compiled ~n_nodes:eng.n_nodes ~m:eng.m meth dt
      in
      let f =
        try
          Solver.factor ?symbolic:eng.sparse_sym eng.plan
            ~fill:(Assembly.Coo.iter coo)
        with Solver.Singular ->
          failwith "Transient: singular MNA matrix"
      in
      if eng.sparse_sym = None then eng.sparse_sym <- Solver.symbolic_of f;
      if Hashtbl.length eng.lu_cache >= lu_cache_limit then
        Hashtbl.reset eng.lu_cache;
      Hashtbl.replace eng.lu_cache key f;
      eng.factorizations <- eng.factorizations + 1;
      f

let solve_factor f ~b ~x = Solver.solve_permuted_into f ~b ~x

let slewed_drive dev ~dt current target_high =
  let target = if target_high then dev.Devices.vdd else 0.0 in
  if dev.Devices.t_transition <= 0.0 then target
  else begin
    let max_step = dev.Devices.vdd *. dt /. dev.Devices.t_transition in
    let delta = target -. current in
    if Float.abs delta <= max_step then target
    else current +. Float.copy_sign max_step delta
  end

(* Fill eng.rhs in place (permuted positions).  Every branch voltage is
   read inline and every companion term is its own float binding: a
   float-returning helper or a tuple would box on each element and
   pass. *)
let build_rhs eng meth dt t_next trial =
  let s = eng.state in
  let b = eng.rhs in
  let p = eng.perm in
  Array.fill b 0 eng.m 0.0;
  let alpha = alpha_of meth in
  Array.iter
    (fun c ->
      match c with
      | Cr _ -> ()
      | Cc { a = na; b = nb; c; state } ->
          let g = alpha *. c /. dt in
          let i_src =
            (g *. (s.v.(na) -. s.v.(nb)))
            +. (match meth with
               | Trapezoidal -> s.cap_i.(state)
               | Backward_euler -> 0.0)
          in
          if na <> 0 then b.(p.(vi na)) <- b.(p.(vi na)) +. i_src;
          if nb <> 0 then b.(p.(vi nb)) <- b.(p.(vi nb)) -. i_src
      | Crl { a = na; b = nb; r; l; state } ->
          let g = 1.0 /. (r +. (alpha *. l /. dt)) in
          let i_src =
            match meth with
            | Trapezoidal ->
                g
                *. (s.v.(na) -. s.v.(nb)
                   +. (((2.0 *. l /. dt) -. r) *. s.rl_i.(state)))
            | Backward_euler -> g *. (l /. dt) *. s.rl_i.(state)
          in
          if na <> 0 then b.(p.(vi na)) <- b.(p.(vi na)) -. i_src;
          if nb <> 0 then b.(p.(vi nb)) <- b.(p.(vi nb)) +. i_src
      | Ccrl { a1; b1; a2; b2; r; l; m; state } ->
          let d = r +. (alpha *. l /. dt) in
          let o = alpha *. m /. dt in
          let det = (d *. d) -. (o *. o) in
          let i1 = s.rl_i.(state) and i2 = s.rl_i.(state + 1) in
          let w1 =
            match meth with
            | Trapezoidal ->
                s.v.(a1) -. s.v.(b1)
                +. (((2.0 *. l /. dt) -. r) *. i1)
                +. (2.0 *. m /. dt *. i2)
            | Backward_euler -> (l /. dt *. i1) +. (m /. dt *. i2)
          in
          let w2 =
            match meth with
            | Trapezoidal ->
                s.v.(a2) -. s.v.(b2)
                +. (((2.0 *. l /. dt) -. r) *. i2)
                +. (2.0 *. m /. dt *. i1)
            | Backward_euler -> (l /. dt *. i2) +. (m /. dt *. i1)
          in
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
          b.(p.(eng.n_nodes - 1 + row)) <- Stimulus.eval stim t_next
      | Ci { a = na; b = nb; stim } ->
          let j = Stimulus.eval stim t_next in
          if na <> 0 then b.(p.(vi na)) <- b.(p.(vi na)) -. j;
          if nb <> 0 then b.(p.(vi nb)) <- b.(p.(vi nb)) +. j)
    eng.compiled

(* Advance the engine state by one step of [dt] ending at [t_next],
   resolving the inverter logic by fixed point.  Mutates eng.state and
   the engine's scratch buffers; allocates nothing per step. *)
let advance_raw eng meth dt t_next =
  let s = eng.state in
  let f = factorization eng meth dt in
  let trial = eng.trial in
  Array.blit s.inv_high 0 trial 0 (Array.length s.inv_high);
  let x = eng.x in
  let p = eng.perm in
  let passes = ref 0 in
  let stable = ref false in
  while (not !stable) && !passes < eng.max_state_iterations do
    incr passes;
    build_rhs eng meth dt t_next trial;
    solve_factor f ~b:eng.rhs ~x;
    let changed = ref false in
    Array.iter
      (function
        | Cinv { input; dev; state; _ } ->
            let v_in = if input = 0 then 0.0 else x.(p.(vi input)) in
            let high = Devices.drives_high dev ~v_in in
            eng.trial_next.(state) <- high;
            if high <> trial.(state) then changed := true
        | Cr _ | Cc _ | Crl _ | Ccrl _ | Cv _ | Ci _ -> ())
      eng.compiled;
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
  let alpha = alpha_of meth in
  let v_new = eng.v_new in
  v_new.(0) <- 0.0;
  for node = 1 to eng.n_nodes - 1 do
    v_new.(node) <- x.(p.(vi node))
  done;
  (* commit branch states (companion updates need the OLD voltages) *)
  Array.iter
    (fun c ->
      match c with
      | Cc { a = na; b = nb; c; state } ->
          let g = alpha *. c /. dt in
          let old_vab = s.v.(na) -. s.v.(nb) in
          let new_vab = v_new.(na) -. v_new.(nb) in
          s.cap_i.(state) <-
            (match meth with
            | Trapezoidal -> (g *. (new_vab -. old_vab)) -. s.cap_i.(state)
            | Backward_euler -> g *. (new_vab -. old_vab))
      | Crl { a = na; b = nb; r; l; state } ->
          let g = 1.0 /. (r +. (alpha *. l /. dt)) in
          let old_vab = s.v.(na) -. s.v.(nb) in
          let new_vab = v_new.(na) -. v_new.(nb) in
          s.rl_i.(state) <-
            (match meth with
            | Trapezoidal ->
                g
                *. (new_vab +. old_vab
                   +. (((2.0 *. l /. dt) -. r) *. s.rl_i.(state)))
            | Backward_euler -> g *. (new_vab +. (l /. dt *. s.rl_i.(state))))
      | Ccrl { a1; b1; a2; b2; r; l; m; state } ->
          let d = r +. (alpha *. l /. dt) in
          let o = alpha *. m /. dt in
          let det = (d *. d) -. (o *. o) in
          let i1 = s.rl_i.(state) and i2 = s.rl_i.(state + 1) in
          let w1 =
            match meth with
            | Trapezoidal ->
                s.v.(a1) -. s.v.(b1)
                +. (((2.0 *. l /. dt) -. r) *. i1)
                +. (2.0 *. m /. dt *. i2)
            | Backward_euler -> (l /. dt *. i1) +. (m /. dt *. i2)
          in
          let w2 =
            match meth with
            | Trapezoidal ->
                s.v.(a2) -. s.v.(b2)
                +. (((2.0 *. l /. dt) -. r) *. i2)
                +. (2.0 *. m /. dt *. i1)
            | Backward_euler -> (l /. dt *. i2) +. (m /. dt *. i1)
          in
          let u1 = (v_new.(a1) -. v_new.(b1)) +. w1 in
          let u2 = (v_new.(a2) -. v_new.(b2)) +. w2 in
          s.rl_i.(state) <- ((d *. u1) -. (o *. u2)) /. det;
          s.rl_i.(state + 1) <- ((d *. u2) -. (o *. u1)) /. det
      | Cr _ | Cv _ | Ci _ -> ()
      | Cinv _ -> ())
    eng.compiled;
  Array.iter
    (function
      | Cinv { dev; state; _ } ->
          s.inv_drive.(state) <-
            slewed_drive dev ~dt s.inv_drive.(state) trial.(state)
      | Cr _ | Cc _ | Crl _ | Ccrl _ | Cv _ | Ci _ -> ())
    eng.compiled;
  Array.blit v_new 0 s.v 0 eng.n_nodes;
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
      match Hashtbl.find_opt eng.compiled_of_id id with
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
          eng.x.(eng.perm.(eng.n_nodes - 1 + row))
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
          if node < 0 || node >= eng.n_nodes then
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
  let slot = ref 0 in
  for step = 1 to n_steps do
    let meth =
      match (step, integration) with 1, _ -> Backward_euler | _, m -> m
    in
    advance eng meth dt (float_of_int step *. dt);
    if step mod record_every = 0 then begin
      incr slot;
      if !slot < n_records then begin
        times.(!slot) <- float_of_int step *. dt;
        record !slot
      end
    end
  done;
  let used = !slot + 1 in
  finish eng
    ~time:(Array.sub times 0 used)
    ~probe_data:
      (List.map (fun (p, arr) -> (p, Array.sub arr 0 used)) probe_specs)
    ~steps:n_steps ~rejected:0 ~forced:0

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
  let n = eng.n_nodes in
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
