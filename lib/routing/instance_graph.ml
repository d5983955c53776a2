open Rd_addr
open Rd_config

type endpoint = Inst of int | External of int

type via =
  | Redist of { router : int; redist : Ast.redistribute }
  | Ebgp_session of { router : int; peer_addr : Ipv4.t }
  | Igp_edge of { router : int; subnet : Prefix.t }

type edge = {
  src : endpoint;
  dst : endpoint;
  via : via;
  filter : Rd_policy.Route_filter.t;
}

type t = {
  catalog : Process.catalog;
  assignment : Instance.assignment;
  adjacency : Adjacency.result;
  edges : edge list;
  local_redists : (int * int * Ast.redistribute) list;
}

(* --- policy resolution -------------------------------------------------- *)

(* All filter construction funnels through [Route_filter.compile], which
   memoizes named-policy lowering per domain: an ACL or route-map
   referenced by fifty edges is lowered to a prefix set once. *)

let redist_filter (cfg : Ast.t) (r : Ast.redistribute) =
  match r.route_map with
  | None -> Rd_policy.Route_filter.everything
  | Some name ->
    Rd_policy.Route_filter.compile cfg ~acls:[] ~prefix_lists:[] ~route_maps:[ name ] ()

(* Process-level distribute-lists in the given direction (ignoring
   per-interface qualifiers, which restrict but do not change the set of
   possibly-flowing routes). *)
let process_dlist_filter (cfg : Ast.t) (p : Process.t) direction =
  let acls =
    List.filter_map
      (fun (d : Ast.distribute_list) ->
        if d.dl_direction = direction && d.dl_interface = None then Some d.dl_acl else None)
      p.ast.dlists
  in
  Rd_policy.Route_filter.compile cfg ~acls ~prefix_lists:[] ~route_maps:[] ()

let neighbor_filter (cfg : Ast.t) (n : Ast.neighbor) direction =
  let named l =
    List.filter_map (fun (name, d) -> if d = direction then Some name else None) l
  in
  Rd_policy.Route_filter.compile cfg ~acls:(named n.nb_dlists)
    ~prefix_lists:(named n.nb_prefix_lists)
    ~route_maps:(named n.nb_route_maps) ()

let find_neighbor (p : Process.t) peer_addr =
  List.find_opt (fun (n : Ast.neighbor) -> Ipv4.equal n.peer peer_addr) p.ast.neighbors

(* The session filter for routes flowing out of process [p] toward peer
   address [peer] combined with routes flowing into process [q] from the
   matching neighbor statement.  [addrs_of_router] is precomputed once
   per build (the old per-call interface scan was quadratic in sessions ×
   interfaces). *)
let session_filter catalog addrs_of_router (p : Process.t) (q : Process.t) =
  let cfg_p = snd catalog.Process.topo.routers.(p.router) in
  let cfg_q = snd catalog.Process.topo.routers.(q.router) in
  (* p's neighbor statement names an address on q's router and conversely. *)
  let q_addrs = addrs_of_router.(q.router) in
  let p_out =
    List.fold_left
      (fun acc (n : Ast.neighbor) ->
        if List.exists (Ipv4.equal n.peer) q_addrs then
          Rd_policy.Route_filter.conj acc (neighbor_filter cfg_p n Ast.Out)
        else acc)
      Rd_policy.Route_filter.everything p.ast.neighbors
  in
  let p_addrs = addrs_of_router.(p.router) in
  let q_in =
    List.fold_left
      (fun acc (n : Ast.neighbor) ->
        if List.exists (Ipv4.equal n.peer) p_addrs then
          Rd_policy.Route_filter.conj acc (neighbor_filter cfg_q n Ast.In)
        else acc)
      Rd_policy.Route_filter.everything q.ast.neighbors
  in
  Rd_policy.Route_filter.conj p_out q_in

(* --- construction ------------------------------------------------------- *)

let build ?metrics (catalog : Process.catalog) =
  let adjacency = Adjacency.compute catalog in
  let assignment = Instance.compute catalog adjacency in
  let inst_of pid = assignment.of_process.(pid) in
  let addrs_of_router =
    let a = Array.make (Array.length catalog.topo.routers) [] in
    Array.iter
      (fun (i : Rd_topo.Topology.iface) ->
        match i.address with
        | Some (addr, _) -> a.(i.router) <- addr :: a.(i.router)
        | None -> ())
      catalog.topo.ifaces;
    a
  in
  let edges = ref [] in
  let local_redists = ref [] in
  (* 1. Redistribution between processes on one router. *)
  Array.iter
    (fun (p : Process.t) ->
      let cfg = snd catalog.topo.routers.(p.router) in
      List.iter
        (fun (r : Ast.redistribute) ->
          match r.source with
          | Ast.From_connected | Ast.From_static ->
            local_redists := (inst_of p.pid, p.router, r) :: !local_redists
          | Ast.From_protocol (proto, id) -> (
            let src_proc =
              List.find_map
                (fun pid ->
                  let q = catalog.processes.(pid) in
                  if q.protocol = proto && (id = None || q.proc_id = id) then Some q else None)
                catalog.by_router.(p.router)
            in
            match src_proc with
            | None -> ()
            | Some q ->
              let si = inst_of q.pid and di = inst_of p.pid in
              if si <> di then
                edges :=
                  {
                    src = Inst si;
                    dst = Inst di;
                    via = Redist { router = p.router; redist = r };
                    filter = redist_filter cfg r;
                  }
                  :: !edges))
        p.ast.redistributes)
    catalog.processes;
  (* 2. EBGP sessions between internal instances (both directions). *)
  List.iter
    (fun (a : Adjacency.t) ->
      match a.kind with
      | Adjacency.Ebgp ->
        let p = catalog.processes.(a.a) and q = catalog.processes.(a.b) in
        let ip = inst_of p.pid and iq = inst_of q.pid in
        if ip <> iq then begin
          let peer_addr_of (x : Process.t) (y : Process.t) =
            (* y's address that x's neighbor statement names. *)
            List.find_map
              (fun (n : Ast.neighbor) ->
                match Hashtbl.find_opt catalog.addr_owner (Ipv4.to_int n.peer) with
                | Some r when r = y.router -> Some n.peer
                | _ -> None)
              x.ast.neighbors
          in
          (match peer_addr_of p q with
           | Some peer ->
             edges :=
               {
                 src = Inst ip;
                 dst = Inst iq;
                 via = Ebgp_session { router = p.router; peer_addr = peer };
                 filter = session_filter catalog addrs_of_router p q;
               }
               :: !edges
           | None -> ());
          match peer_addr_of q p with
          | Some peer ->
            edges :=
              {
                src = Inst iq;
                dst = Inst ip;
                via = Ebgp_session { router = q.router; peer_addr = peer };
                filter = session_filter catalog addrs_of_router q p;
              }
              :: !edges
          | None -> ()
        end
      | _ -> ())
    adjacency.adjacencies;
  (* 3. External BGP peerings: one edge in each direction per session. *)
  List.iter
    (fun (ep : Adjacency.external_peering) ->
      let p = catalog.processes.(ep.proc) in
      let cfg = snd catalog.topo.routers.(p.router) in
      let i = inst_of p.pid in
      (match find_neighbor p ep.peer_addr with
       | Some n ->
         edges :=
           {
             src = External ep.remote_asn;
             dst = Inst i;
             via = Ebgp_session { router = p.router; peer_addr = ep.peer_addr };
             filter = neighbor_filter cfg n Ast.In;
           }
           :: {
                src = Inst i;
                dst = External ep.remote_asn;
                via = Ebgp_session { router = p.router; peer_addr = ep.peer_addr };
                filter = neighbor_filter cfg n Ast.Out;
              }
           :: !edges
       | None -> ()))
    adjacency.external_peerings;
  (* 4. IGP processes speaking on external-facing links: route exchange
        with an unknown outside neighbor, filtered by process dlists. *)
  List.iter
    (fun (pid, subnet) ->
      let p = catalog.processes.(pid) in
      let cfg = snd catalog.topo.routers.(p.router) in
      let i = inst_of pid in
      edges :=
        {
          src = External 0;
          dst = Inst i;
          via = Igp_edge { router = p.router; subnet };
          filter = process_dlist_filter cfg p Ast.In;
        }
        :: {
             src = Inst i;
             dst = External 0;
             via = Igp_edge { router = p.router; subnet };
             filter = process_dlist_filter cfg p Ast.Out;
           }
        :: !edges)
    adjacency.igp_external_edges;
  (match metrics with
   | None -> ()
   | Some _ ->
     Rd_util.Metrics.incr metrics ~by:(Array.length assignment.instances) "instance.instances";
     Array.iter
       (fun i ->
         Rd_util.Metrics.observe metrics "instance.size" (float_of_int (Instance.size i)))
       assignment.instances;
     Rd_util.Metrics.incr metrics ~by:(List.length !edges) "instance.graph_edges";
     Rd_util.Metrics.incr metrics
       ~by:(List.length adjacency.adjacencies)
       "instance.adjacencies");
  {
    catalog;
    assignment;
    adjacency;
    edges = List.rev !edges;
    local_redists = List.rev !local_redists;
  }

let instances t = t.assignment.instances

let external_asns t =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun e ->
         match (e.src, e.dst) with
         | External a, _ -> Some a
         | _, External a -> Some a
         | _ -> None)
       t.edges)

let in_edges t v = List.filter (fun e -> e.dst = v) t.edges

let via_router = function
  | Redist { router; _ } | Ebgp_session { router; _ } | Igp_edge { router; _ } -> router

let instance_of_router t ri =
  List.sort_uniq Int.compare
    (List.map (fun pid -> t.assignment.of_process.(pid)) t.catalog.by_router.(ri))

let ibgp_mesh_completeness t inst_id =
  let inst = t.assignment.instances.(inst_id) in
  let n = List.length inst.routers in
  if inst.protocol <> Ast.Bgp || n < 2 then None
  else begin
    let pairs = Hashtbl.create 64 in
    List.iter
      (fun (a : Adjacency.t) ->
        if
          a.kind = Adjacency.Ibgp
          && t.assignment.of_process.(a.a) = inst_id
          && t.assignment.of_process.(a.b) = inst_id
        then begin
          let p = t.catalog.processes.(a.a) and q = t.catalog.processes.(a.b) in
          let u = min p.router q.router and v = max p.router q.router in
          if u <> v then Hashtbl.replace pairs (u, v) ()
        end)
      t.adjacency.adjacencies;
    Some (float_of_int (Hashtbl.length pairs) /. float_of_int (n * (n - 1) / 2))
  end

let endpoint_id = function
  | Inst i -> Printf.sprintf "i%d" i
  | External a -> Printf.sprintf "x%d" a

let endpoint_label t = function
  | Inst i -> Instance.to_string t.assignment.instances.(i)
  | External 0 -> "external (igp peer)"
  | External a -> Printf.sprintf "AS %d (external)" a

let to_dot t =
  let g = Rd_util.Dot.create "instance_graph" in
  Array.iter
    (fun (i : Instance.t) ->
      Rd_util.Dot.node g
        ~label:(Instance.to_string i)
        ~shape:(if i.protocol = Ast.Bgp then "box" else "ellipse")
        (endpoint_id (Inst i.inst_id)))
    t.assignment.instances;
  List.iter
    (fun a -> Rd_util.Dot.node g ~label:(endpoint_label t (External a)) ~shape:"doubleoctagon" (endpoint_id (External a)))
    (external_asns t);
  (* Collapse parallel edges for readability: group by (src,dst,kind). *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let kind =
        match e.via with Redist _ -> "redist" | Ebgp_session _ -> "ebgp" | Igp_edge _ -> "igp"
      in
      let key = (endpoint_id e.src, endpoint_id e.dst, kind) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let style = if kind = "redist" then Some "dashed" else None in
        Rd_util.Dot.edge g ~label:kind ?style (endpoint_id e.src) (endpoint_id e.dst)
      end)
    t.edges;
  Rd_util.Dot.to_string g
