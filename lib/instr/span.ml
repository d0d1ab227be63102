(* Nested wall-clock spans. Each domain keeps its own span stack and
   aggregation tree in its shard; [enter]/[exit] are domain-local.
   When the journal is capturing, every completed span is also
   recorded as one [span] journal event (name, start, duration), which
   is what {!Trace} renders. *)

let enter name =
  if !Shard.enabled then begin
    let sh = Shard.current () in
    let parent =
      match sh.Shard.span_stack with
      | (node, _) :: _ -> node
      | [] -> sh.Shard.sroot
    in
    let node =
      match Hashtbl.find_opt parent.Shard.children name with
      | Some n -> n
      | None ->
          let n = Shard.fresh_node name in
          Hashtbl.add parent.Shard.children name n;
          n
    in
    sh.Shard.span_stack <- (node, Shard.now_us ()) :: sh.Shard.span_stack
  end

(* [exit] pops unconditionally (when a span is open) so that flipping
   [enabled] off between an enter and its exit cannot wedge the stack;
   at worst the interval's timing is attributed normally. *)
let exit () =
  let sh = Shard.current () in
  match sh.Shard.span_stack with
  | [] -> ()
  | (node, t0) :: rest ->
      sh.Shard.span_stack <- rest;
      let t1 = Shard.now_us () in
      node.Shard.total_us <- node.Shard.total_us +. (t1 -. t0);
      node.Shard.calls <- node.Shard.calls + 1;
      if !Shard.journaling then
        Shard.push sh ~ts_us:t0 "span"
          [
            ("name", Shard.Str node.Shard.sname);
            ("dur_us", Shard.Num (t1 -. t0));
          ]

let with_ name f =
  if !Shard.enabled then begin
    enter name;
    Fun.protect ~finally:exit f
  end
  else f ()

(* ---------------- aggregated tree ---------------- *)

type tree = {
  name : string;
  calls : int;
  total_s : float;
  self_s : float;
  children : tree list;
}

(* merge the per-shard trees name-by-name, recursively *)
let rec merge_children (groups : Shard.span_node list list) : tree list =
  let order = ref [] in
  let by_name : (string, Shard.span_node list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (List.iter (fun (n : Shard.span_node) ->
         match Hashtbl.find_opt by_name n.Shard.sname with
         | Some l -> l := n :: !l
         | None ->
             Hashtbl.add by_name n.Shard.sname (ref [ n ]);
             order := n.Shard.sname :: !order))
    groups;
  List.rev !order
  |> List.map (fun name ->
         let nodes = !(Hashtbl.find by_name name) in
         let calls =
           List.fold_left (fun a n -> a + n.Shard.calls) 0 nodes
         in
         let total_us =
           List.fold_left (fun a n -> a +. n.Shard.total_us) 0.0 nodes
         in
         let child_groups =
           List.map
             (fun (n : Shard.span_node) ->
               Hashtbl.fold (fun _ c acc -> c :: acc) n.Shard.children [])
             nodes
         in
         let children = merge_children child_groups in
         let child_total =
           List.fold_left (fun a c -> a +. c.total_s) 0.0 children
         in
         let total_s = total_us *. 1e-6 in
         {
           name;
           calls;
           total_s;
           self_s = Float.max 0.0 (total_s -. child_total);
           children;
         })
  |> List.sort (fun a b -> Float.compare b.total_s a.total_s)

let trees () =
  let roots =
    List.map
      (fun (sh : Shard.t) ->
        Hashtbl.fold (fun _ c acc -> c :: acc) sh.Shard.sroot.Shard.children [])
      (Shard.all_shards ())
  in
  merge_children roots

let dump_tree ppf =
  let ts = trees () in
  if ts <> [] then begin
    Format.fprintf ppf "%-40s %10s %12s %12s@." "span" "calls" "total"
      "self";
    let rec go depth t =
      let label = String.make (2 * depth) ' ' ^ t.name in
      Format.fprintf ppf "%-40s %10d %11.3fms %11.3fms@." label t.calls
        (t.total_s *. 1e3) (t.self_s *. 1e3);
      List.iter (go (depth + 1)) t.children
    in
    List.iter (go 0) ts
  end
