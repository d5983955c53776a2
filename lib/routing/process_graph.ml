open Rd_config

type vertex = Proc of int | Local of int | Router_rib of int

type edge_kind =
  | Adjacent of Adjacency.kind
  | Redistribution of Ast.redistribute
  | Selection

type edge = { src : vertex; dst : vertex; kind : edge_kind }

type t = {
  catalog : Process.catalog;
  adjacency : Adjacency.result;
  edges : edge list;
}

(* Resolve a redistribute source to the providing RIB vertex on the same
   router. *)
let source_vertex (catalog : Process.catalog) router (r : Ast.redistribute) =
  match r.source with
  | Ast.From_connected | Ast.From_static -> Some (Local router)
  | Ast.From_protocol (proto, id) ->
    List.find_map
      (fun pid ->
        let p = catalog.processes.(pid) in
        if p.protocol = proto && (id = None || p.proc_id = id) then Some (Proc pid) else None)
      catalog.by_router.(router)

let build (catalog : Process.catalog) =
  let adjacency = Adjacency.compute catalog in
  let edges = ref [] in
  (* Adjacency edges (route exchange is bidirectional; store one edge). *)
  List.iter
    (fun (a : Adjacency.t) ->
      edges := { src = Proc a.a; dst = Proc a.b; kind = Adjacent a.kind } :: !edges)
    adjacency.adjacencies;
  (* Redistribution edges. *)
  Array.iter
    (fun (p : Process.t) ->
      List.iter
        (fun (r : Ast.redistribute) ->
          match source_vertex catalog p.router r with
          | Some src -> edges := { src; dst = Proc p.pid; kind = Redistribution r } :: !edges
          | None -> ())
        p.ast.redistributes)
    catalog.processes;
  (* Selection edges into each router RIB. *)
  Array.iteri
    (fun ri _ ->
      edges := { src = Local ri; dst = Router_rib ri; kind = Selection } :: !edges;
      List.iter
        (fun pid -> edges := { src = Proc pid; dst = Router_rib ri; kind = Selection } :: !edges)
        catalog.by_router.(ri))
    catalog.topo.routers;
  { catalog; adjacency; edges = List.rev !edges }

let vertices t =
  let n = Array.length t.catalog.topo.routers in
  Array.to_list (Array.map (fun (p : Process.t) -> Proc p.pid) t.catalog.processes)
  @ List.concat (List.init n (fun i -> [ Local i; Router_rib i ]))

let redistribution_edges t =
  List.filter (fun e -> match e.kind with Redistribution _ -> true | _ -> false) t.edges

let vertex_label t = function
  | Proc pid -> Process.to_string t.catalog t.catalog.processes.(pid)
  | Local ri -> Printf.sprintf "%s:local" (fst t.catalog.topo.routers.(ri))
  | Router_rib ri -> Printf.sprintf "%s:rib" (fst t.catalog.topo.routers.(ri))

let render t =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun ri (name, _) ->
      Printf.bprintf buf "%s:\n" name;
      Printf.bprintf buf "  local RIB, router RIB\n";
      List.iter
        (fun pid ->
          let p = t.catalog.processes.(pid) in
          Printf.bprintf buf "  %s RIB%s\n"
            (Ast.protocol_to_string p.protocol)
            (match p.proc_id with Some id -> Printf.sprintf " (process %d)" id | None -> ""))
        t.catalog.by_router.(ri))
    t.catalog.topo.routers;
  Printf.bprintf buf "adjacency edges:\n";
  List.iter
    (fun e ->
      match e.kind with
      | Adjacent kind ->
        Printf.bprintf buf "  %s <-%s-> %s\n" (vertex_label t e.src)
          (match kind with
           | Adjacency.Igp p -> "igp " ^ Rd_addr.Prefix.to_string p
           | Adjacency.Ibgp -> "ibgp"
           | Adjacency.Ebgp -> "ebgp")
          (vertex_label t e.dst)
      | Redistribution _ | Selection -> ())
    t.edges;
  Printf.bprintf buf "redistribution edges:\n";
  List.iter
    (fun e ->
      match e.kind with
      | Redistribution rd ->
        Printf.bprintf buf "  %s --> %s%s\n" (vertex_label t e.src) (vertex_label t e.dst)
          (match rd.route_map with Some m -> " (route-map " ^ m ^ ")" | None -> "")
      | Adjacent _ | Selection -> ())
    t.edges;
  Buffer.contents buf

let vertex_id = function
  | Proc pid -> Printf.sprintf "p%d" pid
  | Local ri -> Printf.sprintf "l%d" ri
  | Router_rib ri -> Printf.sprintf "r%d" ri

let to_dot t =
  let g = Rd_util.Dot.create "process_graph" in
  List.iter
    (fun v ->
      let shape = match v with Router_rib _ -> Some "box" | _ -> Some "ellipse" in
      Rd_util.Dot.node g ~label:(vertex_label t v) ?shape (vertex_id v))
    (vertices t);
  Array.iteri
    (fun ri (name, _) ->
      let members =
        vertex_id (Local ri) :: vertex_id (Router_rib ri)
        :: List.map (fun pid -> vertex_id (Proc pid)) t.catalog.by_router.(ri)
      in
      Rd_util.Dot.subgraph g ~label:name (string_of_int ri) members)
    t.catalog.topo.routers;
  List.iter
    (fun e ->
      let label, style =
        match e.kind with
        | Adjacent (Adjacency.Igp _) -> (Some "adj", None)
        | Adjacent Adjacency.Ibgp -> (Some "ibgp", None)
        | Adjacent Adjacency.Ebgp -> (Some "ebgp", Some "bold")
        | Redistribution _ -> (Some "redist", Some "dashed")
        | Selection -> (None, Some "dotted")
      in
      Rd_util.Dot.edge g ?label ?style (vertex_id e.src) (vertex_id e.dst))
    t.edges;
  Rd_util.Dot.to_string g
