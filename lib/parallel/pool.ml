type t = { capacity : int }

module M = Rlc_instr.Metrics

let m_maps = M.counter "pool.maps"
let m_spawn_fallback = M.counter "pool.spawn_fallback"

let worker_handles w =
  let p = Printf.sprintf "pool.worker%d." w in
  (M.counter (p ^ "chunks"), M.counter (p ^ "busy_s"), M.counter (p ^ "idle_s"))

(* intern the first few worker rows up front so a --stats dump always
   shows the pool section, honestly zeroed when nothing ran parallel *)
let () = for w = 0 to 3 do ignore (worker_handles w) done

let clamp n = Int.max 1 (Int.min 128 n)

let default_domains () =
  let from_env =
    match Sys.getenv_opt "RLC_JOBS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | Some _ | None -> None)
  in
  clamp
    (match from_env with
    | Some n -> n
    | None -> Domain.recommended_domain_count ())

let create ?domains () =
  match domains with
  | None -> { capacity = default_domains () }
  | Some d ->
      if d < 1 then invalid_arg "Pool.create: domains < 1";
      { capacity = clamp d }

let sequential = { capacity = 1 }
let domains t = t.capacity

(* Hand out chunk indices [0, n_chunks) through an atomic cursor to the
   calling domain plus up to [capacity - 1] spawned ones.  [work c]
   must write only slots owned by chunk [c]; any exception parks in
   [failure] (first observed wins) and drains the cursor. *)
let run_workers ~capacity ~n_chunks ~work =
  M.incr m_maps;
  let cursor = Atomic.make 0 in
  let failure = Atomic.make None in
  (* [w] is the worker's index (0 = the calling domain), used only to
     label its telemetry; the chunk cursor alone decides who does what,
     so recording never changes the work distribution's semantics *)
  let worker w () =
    let on = M.recording () in
    let t_worker = Rlc_instr.Timer.start () in
    let busy = ref 0.0 in
    let chunks = ref 0 in
    let continue = ref true in
    while !continue do
      if Atomic.get failure <> None then continue := false
      else begin
        let c = Atomic.fetch_and_add cursor 1 in
        if c >= n_chunks then continue := false
        else begin
          if on then incr chunks;
          try
            if on then begin
              let t = Rlc_instr.Timer.start () in
              work c;
              busy := !busy +. Rlc_instr.Timer.elapsed_s t
            end
            else work c
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue := false
        end
      end
    done;
    if on then begin
      let mc, mb, mi = worker_handles w in
      M.add mc (Float.of_int !chunks);
      M.add mb !busy;
      M.add mi (Float.max 0.0 (Rlc_instr.Timer.elapsed_s t_worker -. !busy))
    end
  in
  let spawned = ref [] in
  (* spawn failure is not an error: the chunks left in the cursor are
     simply drained by the domains that did start (possibly only the
     calling one) *)
  (try
     for w = 2 to Int.min capacity n_chunks do
       spawned := Domain.spawn (worker (w - 1)) :: !spawned
     done
   with _ -> M.incr m_spawn_fallback);
  worker 0 ();
  List.iter Domain.join !spawned;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let mapi ?chunk pool f xs =
  let n = Array.length xs in
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.map: chunk < 1"
  | Some _ | None -> ());
  if n = 0 then [||]
  else if pool.capacity = 1 || n = 1 then Array.init n (fun i -> f i xs.(i))
  else begin
    (* slot 0 is computed here both to seed the (possibly unboxed)
       result array and to surface an immediately-raising [f] without
       spawning anything *)
    let y0 = f 0 xs.(0) in
    let out = Array.make n y0 in
    let chunk =
      match chunk with
      | Some c -> c
      | None -> Int.max 1 (n / (4 * pool.capacity))
    in
    let rest = n - 1 in
    let n_chunks = (rest + chunk - 1) / chunk in
    let work c =
      let lo = 1 + (c * chunk) in
      let hi = Int.min n (lo + chunk) in
      for i = lo to hi - 1 do
        out.(i) <- f i xs.(i)
      done
    in
    run_workers ~capacity:pool.capacity ~n_chunks ~work;
    out
  end

let map ?chunk pool f xs = mapi ?chunk pool (fun _ x -> f x) xs

let map_list ?chunk pool f xs =
  Array.to_list (map ?chunk pool f (Array.of_list xs))

let map_reduce ?chunk pool ~map:f ~reduce ~init xs =
  Array.fold_left reduce init (map ?chunk pool f xs)
