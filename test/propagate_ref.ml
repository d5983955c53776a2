(* The original round-robin route simulator, retained verbatim as the
   executable reference semantics for the semi-naive [Rd_sim.Propagate].
   Every round re-transfers every route of every process across every
   adjacency and redistribution edge, rescans every BGP RIB for
   aggregate components, and builds every router RIB eagerly.  Used by
   the agreement tests in [test_sim]. *)

open Rd_sim
open Rd_addr
open Rd_config
open Rd_routing

type t = {
  graph : Process_graph.t;
  proc_ribs : Rib.t array;
  local_ribs : Rib.t array;
  router_ribs : Rib.t array;
  iterations : int;
  converged : bool;
}

let lookup_acl (cfg : Ast.t) name = Ast.find_acl cfg name

(* Filter predicate for a route crossing a policy boundary. *)
let route_map_pass (cfg : Ast.t) name (r : Rib.route) =
  match Ast.find_route_map cfg name with
  | None -> Some r
  | Some rm -> (
    match
      Rd_policy.Route_map.eval rm ~lookup_acl:(lookup_acl cfg)
        ~lookup_prefix_list:(Ast.find_prefix_list cfg)
        { Rd_policy.Route_map.net = r.dest; tag = r.tag; metric = Some r.metric }
    with
    | Rd_policy.Route_map.Denied -> None
    | Rd_policy.Route_map.Permitted rr ->
      Some { r with tag = rr.Rd_policy.Route_map.tag; metric = Option.value rr.metric ~default:r.metric })

(* [via_iface]: the interface the routes cross, when known — interface-
   qualified distribute-lists (Figure 2's "distribute-list 44 in
   Serial1/0.5") then apply too. *)
let dlist_pass ?via_iface (cfg : Ast.t) (p : Process.t) direction (r : Rib.route) =
  List.for_all
    (fun (d : Ast.distribute_list) ->
      let applies =
        d.dl_direction = direction
        && (match d.dl_interface with
            | None -> true
            | Some i -> (match via_iface with Some v -> String.equal i v | None -> false))
      in
      (not applies)
      ||
      match lookup_acl cfg d.dl_acl with
      | Some acl -> Rd_policy.Acl.eval_route acl r.dest = Ast.Permit
      | None -> true)
    p.ast.dlists

let neighbor_pass (cfg : Ast.t) (n : Ast.neighbor) direction (r : Rib.route) =
  let dl_ok =
    List.for_all
      (fun (acl_name, d) ->
        d <> direction
        ||
        match lookup_acl cfg acl_name with
        | Some acl -> Rd_policy.Acl.eval_route acl r.dest = Ast.Permit
        | None -> true)
      n.nb_dlists
    && List.for_all
         (fun (pl_name, d) ->
           d <> direction
           ||
           match Ast.find_prefix_list cfg pl_name with
           | Some pl -> Rd_policy.Prefix_list_policy.eval pl r.dest = Ast.Permit
           | None -> true)
         n.nb_prefix_lists
  in
  if not dl_ok then None
  else begin
    let rec maps r = function
      | [] -> Some r
      | (rm_name, d) :: rest ->
        if d <> direction then maps r rest
        else begin
          match route_map_pass cfg rm_name r with
          | None -> None
          | Some r -> maps r rest
        end
    in
    maps r n.nb_route_maps
  end

let local_rib_of (cfg : Ast.t) =
  let rib = ref Rib.empty in
  List.iter
    (fun (i : Ast.interface) ->
      if not i.shutdown then
        List.iter
          (fun p ->
            rib := Rib.add !rib (Rib.mk p Rib.Connected))
          (Ast.interface_prefixes i))
    cfg.interfaces;
  List.iter
    (fun (s : Ast.static_route) ->
      let next_hop = match s.sr_next_hop with Ast.Nh_addr a -> Some a | Ast.Nh_iface _ -> None in
      rib := Rib.add !rib (Rib.mk ~next_hop ?ad_override:s.sr_distance s.sr_dest Rib.Static))
    cfg.statics;
  !rib

let run ?metrics ?faults ?cancel ?(limits = Rd_util.Limits.default)
    ?(external_prefixes = [ Prefix.default ]) (graph : Process_graph.t) =
  (* Batched observability counters, flushed to the registry once at the
     end of the run (per-route registry updates would dominate). *)
  let installed = ref 0 and redist_events = ref 0 in
  let catalog = graph.catalog in
  let nproc = Array.length catalog.processes in
  let nrouter = Array.length catalog.topo.routers in
  let proc_ribs = Array.make nproc Rib.empty in
  let local_ribs =
    Array.init nrouter (fun ri -> local_rib_of (snd catalog.topo.routers.(ri)))
  in
  (* Seed process RIBs: covered connected subnets + BGP network statements. *)
  Array.iter
    (fun (ifc : Rd_topo.Topology.iface) ->
      match (ifc.address, ifc.subnet) with
      | Some (a, _), Some s ->
        List.iter
          (fun pid ->
            let p = catalog.processes.(pid) in
            if p.protocol <> Ast.Bgp && Process.covers p a then
              proc_ribs.(pid) <-
                Rib.add proc_ribs.(pid) (Rib.mk s (Rib.Proto (p.protocol, `Internal))))
          catalog.by_router.(ifc.router)
      | _ -> ())
    catalog.topo.ifaces;
  Array.iter
    (fun (p : Process.t) ->
      List.iter
        (function
          | Ast.Net_mask pr ->
            proc_ribs.(p.pid) <-
              Rib.add proc_ribs.(p.pid) (Rib.mk pr (Rib.Proto (Ast.Bgp, `Internal)))
          | _ -> ())
        p.ast.networks)
    catalog.processes;
  (* External offers on external peerings and IGP edge links. *)
  let inject_external (p : Process.t) ?(as_path = []) mk_source pass =
    List.iter
      (fun pr ->
        let r = Rib.mk ~as_path pr mk_source in
        match pass r with
        | Some r -> proc_ribs.(p.pid) <- Rib.add proc_ribs.(p.pid) r
        | None -> ())
      external_prefixes
  in
  List.iter
    (fun (ep : Adjacency.external_peering) ->
      let p = catalog.processes.(ep.proc) in
      let cfg = snd catalog.topo.routers.(p.router) in
      let n = List.find_opt (fun (n : Ast.neighbor) -> Ipv4.equal n.peer ep.peer_addr) p.ast.neighbors in
      inject_external p ~as_path:[ ep.remote_asn ]
        (Rib.Proto (Ast.Bgp, `External))
        (fun r ->
          match n with Some n -> neighbor_pass cfg n Ast.In r | None -> Some r))
    graph.adjacency.external_peerings;
  List.iter
    (fun (pid, _subnet) ->
      let p = catalog.processes.(pid) in
      let cfg = snd catalog.topo.routers.(p.router) in
      inject_external p
        (Rib.Proto (p.protocol, `External))
        (fun r -> if dlist_pass cfg p Ast.In r then Some r else None))
    graph.adjacency.igp_external_edges;
  (* Fixpoint propagation. *)
  let changed = ref true in
  let iterations = ref 0 in
  let add_to_proc pid (r : Rib.route) =
    let before = Rib.find proc_ribs.(pid) r.dest in
    let rib' = Rib.add proc_ribs.(pid) r in
    if not (before = Rib.find rib' r.dest) then begin
      proc_ribs.(pid) <- rib';
      incr installed;
      changed := true
    end
  in
  let transfer_adjacent (a : Adjacency.t) =
    let flow src dst =
      let p = catalog.processes.(src) and q = catalog.processes.(dst) in
      let cfg_p = snd catalog.topo.routers.(p.router) in
      let cfg_q = snd catalog.topo.routers.(q.router) in
      let find_neighbor_toward (x : Process.t) other_router =
        List.find_opt
          (fun (n : Ast.neighbor) ->
            match Hashtbl.find_opt catalog.addr_owner (Ipv4.to_int n.peer) with
            | Some owner -> owner = other_router
            | None -> false)
          x.ast.neighbors
      in
      let out_n = find_neighbor_toward p q.router in
      let in_n = find_neighbor_toward q p.router in
      (* for IGP adjacencies, resolve each side's interface on the link so
         interface-qualified distribute-lists apply *)
      let iface_on ri subnet =
        List.find_map
          (fun (i : Ast.interface) ->
            match i.if_address with
            | Some (addr, _) when Prefix.mem addr subnet -> Some i.if_name
            | _ -> None)
          (snd catalog.topo.routers.(ri)).interfaces
      in
      let via_p, via_q =
        match a.kind with
        | Adjacency.Igp subnet -> (iface_on p.router subnet, iface_on q.router subnet)
        | Adjacency.Ibgp | Adjacency.Ebgp -> (None, None)
      in
      let suppressed (r : Rib.route) =
        (* summary-only aggregates suppress their components on BGP
           advertisements *)
        (match a.kind with Adjacency.Igp _ -> false | Adjacency.Ibgp | Adjacency.Ebgp -> true)
        && p.protocol = Ast.Bgp
        && List.exists
             (fun (aggregate, summary_only) ->
               summary_only
               && Prefix.subset r.dest aggregate
               && not (Prefix.equal r.dest aggregate))
             p.ast.aggregates
      in
      List.iter
        (fun (r : Rib.route) ->
          if
            dlist_pass ?via_iface:via_p cfg_p p Ast.Out r
            && dlist_pass ?via_iface:via_q cfg_q q Ast.In r
            && not (suppressed r)
          then begin
            let r' =
              match a.kind with
              | Adjacency.Igp _ -> Some r (* keep internal/external flavour *)
              | Adjacency.Ibgp ->
                (* IBGP non-transitivity (RFC 4456): IBGP-learned routes
                   are only re-advertised toward route-reflector clients,
                   or when they came from a client *)
                let toward_client =
                  match out_n with Some n -> n.route_reflector_client | None -> false
                in
                if r.via_ibgp && (not r.from_client) && not toward_client then None
                else begin
                  let becomes_client_route =
                    match in_n with Some n -> n.route_reflector_client | None -> false
                  in
                  Some
                    {
                      r with
                      source = Rib.Proto (Ast.Bgp, `Internal);
                      via_ibgp = true;
                      from_client = becomes_client_route;
                    }
                end
              | Adjacency.Ebgp ->
                (* EBGP loop prevention: drop routes whose AS path already
                   contains the receiver's AS, and prepend the sender's *)
                let q_asn = q.proc_id and p_asn = p.proc_id in
                if (match q_asn with Some qa -> List.mem qa r.as_path | None -> false) then
                  None
                else
                  Some
                    {
                      r with
                      source = Rib.Proto (Ast.Bgp, `External);
                      via_ibgp = false;
                      from_client = false;
                      as_path =
                        (match p_asn with Some pa -> pa :: r.as_path | None -> r.as_path);
                    }
            in
            (* BGP sessions also apply per-neighbor policy. *)
            let passed =
              match (r', a.kind) with
              | None, _ -> None
              | Some r', Adjacency.Igp _ -> Some r'
              | Some r', (Adjacency.Ibgp | Adjacency.Ebgp) -> (
                let r' =
                  match out_n with
                  | Some n -> neighbor_pass cfg_p n Ast.Out r'
                  | None -> Some r'
                in
                match (r', in_n) with
                | None, _ -> None
                | Some r', Some n -> neighbor_pass cfg_q n Ast.In r'
                | Some r', None -> Some r')
            in
            match passed with Some r' -> add_to_proc q.pid r' | None -> ()
          end)
        (Rib.routes proc_ribs.(p.pid))
    in
    flow a.a a.b;
    flow a.b a.a
  in
  let transfer_redist (e : Process_graph.edge) =
    match (e.kind, e.dst) with
    | Process_graph.Redistribution rd, Process_graph.Proc dst -> (
      let q = catalog.processes.(dst) in
      let cfg = snd catalog.topo.routers.(q.router) in
      let source_routes =
        match e.src with
        | Process_graph.Local ri -> Rib.routes local_ribs.(ri)
        | Process_graph.Proc pid -> Rib.routes proc_ribs.(pid)
        | Process_graph.Router_rib _ -> []
      in
      List.iter
        (fun (r : Rib.route) ->
          (* redistribution strips BGP attributes — the information loss
             the paper's §6.1 discusses *)
          let r =
            {
              r with
              Rib.source = Rib.Proto (q.protocol, `External);
              as_path = [];
              via_ibgp = false;
              from_client = false;
            }
          in
          let r = match rd.route_map with
            | Some name -> route_map_pass cfg name r
            | None -> Some r
          in
          match r with
          | Some r ->
            let r = match rd.metric with Some m -> { r with Rib.metric = m } | None -> r in
            incr redist_events;
            add_to_proc dst r
          | None -> ())
        source_routes)
    | _ -> ()
  in
  (* default-information originate: an IGP process injects a default route
     when its router holds one from some other source (local static or
     another process) *)
  let originate_defaults () =
    Array.iter
      (fun (p : Process.t) ->
        if p.ast.default_originate && p.protocol <> Ast.Bgp then begin
          let router_has_default =
            Rib.find local_ribs.(p.router) Prefix.default <> None
            || List.exists
                 (fun pid ->
                   pid <> p.pid && Rib.find proc_ribs.(pid) Prefix.default <> None)
                 catalog.by_router.(p.router)
          in
          if router_has_default then
            add_to_proc p.pid (Rib.mk Prefix.default (Rib.Proto (p.protocol, `External)))
        end)
      catalog.processes
  in
  (* BGP aggregates: originate the aggregate when a strictly-more-specific
     component is present in the process RIB *)
  let originate_aggregates () =
    Array.iter
      (fun (p : Process.t) ->
        if p.protocol = Ast.Bgp then
          List.iter
            (fun (aggregate, _summary_only) ->
              let has_component =
                List.exists
                  (fun (route : Rib.route) ->
                    Prefix.subset route.dest aggregate
                    && not (Prefix.equal route.dest aggregate))
                  (Rib.routes proc_ribs.(p.pid))
              in
              if has_component then
                add_to_proc p.pid (Rib.mk aggregate (Rib.Proto (Ast.Bgp, `Internal))))
            p.ast.aggregates)
      catalog.processes
  in
  let redist_edges = Process_graph.redistribution_edges graph in
  (* The cancel poll is the non-raising kind: a tripped token exits the
     round loop exactly like an exhausted round budget, so the caller
     still gets the partial RIBs with [converged = false]. *)
  while
    !changed
    && !iterations < limits.max_propagate_iterations
    && not (Rd_util.Cancel.cancelled cancel)
  do
    changed := false;
    incr iterations;
    Rd_util.Fault.fault_point faults ~site:"propagate.fixpoint";
    List.iter transfer_adjacent graph.adjacency.adjacencies;
    List.iter transfer_redist redist_edges;
    originate_aggregates ();
    originate_defaults ()
  done;
  (* [changed] still set means the round budget cut the fixpoint short:
     a degraded (under-approximated) result, recorded rather than
     raised so callers can keep the partial RIBs. *)
  let converged = not !changed in
  (* Router RIB selection. *)
  let router_ribs =
    Array.init nrouter (fun ri ->
        let base = local_ribs.(ri) in
        List.fold_left (fun acc pid -> Rib.merge acc proc_ribs.(pid)) base catalog.by_router.(ri))
  in
  (match metrics with
   | None -> ()
   | Some _ ->
     Rd_util.Metrics.incr metrics "propagate.runs";
     Rd_util.Metrics.incr metrics ~by:!iterations "propagate.fixpoint_iterations";
     Rd_util.Metrics.incr metrics ~by:!installed "propagate.routes_installed";
     Rd_util.Metrics.incr metrics ~by:!redist_events "propagate.redistributions");
  { graph; proc_ribs; local_ribs; router_ribs; iterations = !iterations; converged }
