type t = {
  router : int;
  depth_of : (Instance_graph.endpoint * int) list;
  edges : Instance_graph.edge list;
  reaches_external : bool;
}

let build (g : Instance_graph.t) ~router =
  let start = Instance_graph.instance_of_router g router in
  let depth_tbl = Hashtbl.create 16 in
  let edges = ref [] in
  let queue = Queue.create () in
  List.iter
    (fun i ->
      Hashtbl.replace depth_tbl (Instance_graph.Inst i) 0;
      Queue.add (Instance_graph.Inst i) queue)
    start;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let d = Hashtbl.find depth_tbl v in
    (* Routes flow along e.src -> e.dst; we walk upstream from dst. *)
    List.iter
      (fun (e : Instance_graph.edge) ->
        edges := e :: !edges;
        if not (Hashtbl.mem depth_tbl e.src) then begin
          Hashtbl.replace depth_tbl e.src (d + 1);
          Queue.add e.src queue
        end)
      (Instance_graph.in_edges g v)
  done;
  let depth_of = Hashtbl.fold (fun v d acc -> (v, d) :: acc) depth_tbl [] in
  let reaches_external =
    List.exists (function Instance_graph.External _, _ -> true | _ -> false) depth_of
  in
  (* Deduplicate traversed edges. *)
  let seen = Hashtbl.create 64 in
  let edges =
    List.filter
      (fun (e : Instance_graph.edge) ->
        let key = (e.src, e.dst, match e.via with
          | Instance_graph.Redist { router; _ } -> router
          | Instance_graph.Ebgp_session { router; _ } -> router
          | Instance_graph.Igp_edge { router; _ } -> router)
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      !edges
  in
  let depth_of =
    List.sort (fun (_, d1) (_, d2) -> Int.compare d1 d2) depth_of
  in
  { router; depth_of; edges; reaches_external }

let endpoint_label (g : Instance_graph.t) = function
  | Instance_graph.Inst i -> Instance.to_string g.assignment.instances.(i)
  | Instance_graph.External 0 -> "External World (igp peer)"
  | Instance_graph.External a -> Printf.sprintf "External World (AS %d)" a

let render g t =
  let buf = Buffer.create 256 in
  let rname = fst g.Instance_graph.catalog.topo.routers.(t.router) in
  Buffer.add_string buf (Printf.sprintf "route pathway graph for router %s\n" rname);
  let max_depth = List.fold_left (fun m (_, d) -> max m d) 0 t.depth_of in
  for d = max_depth downto 0 do
    List.iter
      (fun (v, dv) ->
        if dv = d then
          Buffer.add_string buf
            (Printf.sprintf "  %s%s\n" (String.make (2 * (max_depth - d)) ' ') (endpoint_label g v)))
      t.depth_of
  done;
  Buffer.add_string buf (Printf.sprintf "  -> Router RIB of %s\n" rname);
  Buffer.add_string buf
    (Printf.sprintf "  external world reachable upstream: %b\n" t.reaches_external);
  Buffer.contents buf
