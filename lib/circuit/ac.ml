open Rlc_numerics

type point = { freq : float; mag_db : float; phase_deg : float }

let decade_grid ~points_per_decade ~fstart ~fstop =
  if points_per_decade < 1 then invalid_arg "Ac.decade_grid: points/decade < 1";
  if fstart <= 0.0 || fstop < fstart then
    invalid_arg "Ac.decade_grid: need 0 < fstart <= fstop";
  if fstart = fstop then [| fstart |]
  else begin
    let decades = Float.log10 (fstop /. fstart) in
    let n =
      Int.max 1
        (int_of_float
           (Float.round (float_of_int points_per_decade *. decades)))
    in
    Array.init (n + 1) (fun i ->
        if i = n then fstop
        else fstart *. (10.0 ** (decades *. float_of_int i /. float_of_int n)))
  end

let s_of_freq freq = Cx.make 0.0 (2.0 *. Float.pi *. freq)

let point_of ~freq h =
  {
    freq;
    mag_db = 20.0 *. Float.log10 (Cx.norm h +. 1e-300);
    phase_deg = Float.atan2 (Cx.im h) (Cx.re h) *. 180.0 /. Float.pi;
  }

let unwrap phases =
  let n = Array.length phases in
  if n = 0 then [||]
  else begin
    let out = Array.make n phases.(0) in
    let offset = ref 0.0 in
    for i = 1 to n - 1 do
      let d = phases.(i) -. phases.(i - 1) in
      offset := !offset -. (360.0 *. Float.round (d /. 360.0));
      out.(i) <- phases.(i) +. !offset
    done;
    out
  end

let m_points = Rlc_instr.Metrics.counter "ac.points"
let m_point_s = Rlc_instr.Metrics.hist "ac.point_s"

let bode ?pool asm ~node ~freqs =
  let pool =
    match pool with Some p -> p | None -> Rlc_parallel.Pool.sequential
  in
  let k = Assembly.probe ~ctx:"Ac.bode" asm node in
  if Array.length freqs = 0 then [||]
  else
    Rlc_instr.Span.with_ "ac.bode" (fun () ->
        (* engine built before the fan-out: one structure analysis
           (and one sparse symbolic factorisation) shared read-only by
           every point, with the pivot sequence pinned at the first
           frequency — deterministic at any domain count *)
        let eng = Assembly.cengine asm ~s_ref:(s_of_freq freqs.(0)) in
        let rhs = Array.map Cx.of_float (Assembly.b_column asm 0) in
        (* per-domain scratch: the solve buffers are the only mutable
           state a point touches besides its own [x] *)
        let scratch_key =
          Domain.DLS.new_key (fun () -> Assembly.cengine_scratch eng)
        in
        let n = (Assembly.cengine_plan eng).Solver.n in
        Rlc_parallel.Pool.map pool
          (fun f ->
            Rlc_instr.Metrics.incr m_points;
            Rlc_instr.Metrics.timed m_point_s (fun () ->
                let x = Array.make n Cx.zero in
                Assembly.cengine_solve_into eng
                  (Domain.DLS.get scratch_key)
                  ~s:(s_of_freq f) ~rhs ~x;
                point_of ~freq:f x.(k)))
          freqs)
