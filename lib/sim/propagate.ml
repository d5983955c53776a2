open Rd_addr
open Rd_config
open Rd_routing

type t = {
  graph : Process_graph.t;
  proc_ribs : Rib.t array;
  local_ribs : Rib.t array;
  iterations : int;
  converged : bool;
}

(* --- policy filters ------------------------------------------------------ *)

(* Each filter resolves its ACL, prefix-list and route-map names once,
   when the flow that applies it is built, not once per route. *)

let acl_permits (cfg : Ast.t) name =
  match Ast.find_acl cfg name with
  | Some acl -> fun (r : Rib.route) -> Rd_policy.Acl.eval_route acl r.dest = Ast.Permit
  | None -> fun _ -> true

let prefix_list_permits (cfg : Ast.t) name =
  match Ast.find_prefix_list cfg name with
  | Some pl -> fun (r : Rib.route) -> Rd_policy.Prefix_list_policy.eval pl r.dest = Ast.Permit
  | None -> fun _ -> true

(* Filter predicate for a route crossing a policy boundary. *)
let route_map (cfg : Ast.t) name : Rib.route -> Rib.route option =
  match Ast.find_route_map cfg name with
  | None -> Option.some
  | Some rm ->
    let lookup_acl = Ast.find_acl cfg and lookup_prefix_list = Ast.find_prefix_list cfg in
    fun r ->
      match
        Rd_policy.Route_map.eval rm ~lookup_acl ~lookup_prefix_list
          { Rd_policy.Route_map.net = r.dest; tag = r.tag; metric = Some r.metric }
      with
      | Rd_policy.Route_map.Denied -> None
      | Rd_policy.Route_map.Permitted rr ->
        Some { r with tag = rr.Rd_policy.Route_map.tag; metric = Option.value rr.metric ~default:r.metric }

(* [via_iface]: the interface the routes cross, when known — interface-
   qualified distribute-lists (Figure 2's "distribute-list 44 in
   Serial1/0.5") then apply too. *)
let dlist_filter ?via_iface (cfg : Ast.t) (p : Process.t) direction =
  let checks =
    List.filter_map
      (fun (d : Ast.distribute_list) ->
        let applies =
          d.dl_direction = direction
          && (match d.dl_interface with
              | None -> true
              | Some i -> (match via_iface with Some v -> String.equal i v | None -> false))
        in
        if applies then Some (acl_permits cfg d.dl_acl) else None)
      p.ast.dlists
  in
  fun r -> List.for_all (fun ok -> ok r) checks

(* Per-neighbor BGP policy: distribute-lists and prefix-lists must all
   permit, then the route-maps rewrite in configuration order. *)
let neighbor_policy (cfg : Ast.t) (n : Ast.neighbor) direction =
  let wanted names =
    List.filter_map (fun (name, d) -> if d = direction then Some name else None) names
  in
  let checks =
    List.map (acl_permits cfg) (wanted n.nb_dlists)
    @ List.map (prefix_list_permits cfg) (wanted n.nb_prefix_lists)
  in
  let maps = List.map (route_map cfg) (wanted n.nb_route_maps) in
  fun r ->
    if List.for_all (fun ok -> ok r) checks then
      List.fold_left (fun r map -> Option.bind r map) (Some r) maps
    else None

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

(* --- process tables -------------------------------------------------------- *)

(* A process RIB while the fixpoint runs: one entry per prefix, and the
   log of every install, in install order.  A flow keeps a cursor into
   its source's log; the entries logged past the cursor are the routes
   changed since the flow last sent.  An entry records the log position
   of its latest install, so a prefix installed twice since a cursor is
   read once. *)
type entry = { key : int; mutable route : Rib.route; mutable last : int }

module Keys = Hashtbl.Make (Int)

type table = {
  entries : entry Keys.t;
  mutable log : entry array;
  mutable logged : int;
}

(* Integer keys order like [Prefix.compare], the RIB's prefix order. *)
let key (p : Prefix.t) = (Ipv4.to_int (Prefix.addr p) lsl 6) lor Prefix.len p

let unused = { key = -1; route = Rib.mk Prefix.default Rib.Connected; last = -1 }

let new_table () = { entries = Keys.create 16; log = Array.make 16 unused; logged = 0 }

let append t e =
  e.last <- t.logged;
  if t.logged = Array.length t.log then begin
    let log = Array.make (2 * t.logged) unused in
    Array.blit t.log 0 log 0 t.logged;
    t.log <- log
  end;
  t.log.(t.logged) <- e;
  t.logged <- t.logged + 1

(* [Rib.add]'s rule: a route replaces an entry only when strictly
   better, so of equally preferred routes the first stays.  True when
   the entry changed. *)
let install t (r : Rib.route) =
  let k = key r.dest in
  match Keys.find_opt t.entries k with
  | Some e when not (Rib.better r e.route) -> false
  | Some e ->
    e.route <- r;
    append t e;
    true
  | None ->
    let e = { key = k; route = r; last = 0 } in
    Keys.add t.entries k e;
    append t e;
    true

(* The current routes of every entry logged at or after [cursor], once
   each, in prefix order. *)
let changed_since t cursor =
  let fresh = ref [] in
  for j = t.logged - 1 downto cursor do
    let e = t.log.(j) in
    if e.last = j then fresh := e :: !fresh
  done;
  List.map (fun e -> e.route) (List.sort (fun a b -> Int.compare a.key b.key) !fresh)

let table_of_rib rib =
  let t = new_table () in
  List.iter (fun r -> ignore (install t r)) (Rib.routes rib);
  t

(* The table's routes as a RIB; the table is emptied, so each one's
   memory is released as soon as its RIB is built. *)
let freeze t =
  let rib = Rib.of_routes (changed_since t 0) in
  Keys.reset t.entries;
  t.log <- [||];
  t.logged <- 0;
  rib

(* --- flows ----------------------------------------------------------------- *)

(* One direction of an adjacency, or one redistribution edge: the table
   its routes come from (a process RIB, or a router's connected and
   static routes), and what it does with each (filter, rewrite, install
   at the receiver). *)
type flow = { source : table; mutable cursor : int; offer : Rib.route -> unit }

(* Sending a route the flow already sent is a no-op: its offer is a
   function of the route alone, and the receiver's entry for that
   prefix has only improved since.  So a flow sends only what changed
   since its last send, taken from the source before the first offer. *)
let send flow =
  if flow.source.logged > flow.cursor then begin
    let pending = changed_since flow.source flow.cursor in
    flow.cursor <- flow.source.logged;
    List.iter flow.offer pending
  end

(* A BGP aggregate-address of one process, with a cursor into that
   process's log like a flow's. *)
type aggregator = {
  pid : int;
  aggregate : Prefix.t;
  mutable scanned : int;
  mutable originated : bool;
}

let run ?metrics ?faults ?cancel ?(limits = Rd_util.Limits.default)
    ?(external_prefixes = [ Prefix.default ]) (graph : Process_graph.t) =
  (* Batched observability counters, flushed to the registry once at the
     end of the run (per-route registry updates would dominate). *)
  let installed = ref 0 and redist_events = ref 0 in
  let catalog = graph.catalog in
  let nproc = Array.length catalog.processes in
  let nrouter = Array.length catalog.topo.routers in
  let config_of (p : Process.t) = snd catalog.topo.routers.(p.router) in
  let tables = Array.init nproc (fun _ -> new_table ()) in
  let local_ribs =
    Array.init nrouter (fun ri -> local_rib_of (snd catalog.topo.routers.(ri)))
  in
  (* Seed process RIBs: covered connected subnets + BGP network statements. *)
  Array.iter
    (fun (ifc : Rd_topo.Topology.iface) ->
      match ifc.subnet with
      | Some s ->
        List.iter
          (fun (p : Process.t) ->
            if p.protocol <> Ast.Bgp then
              ignore (install tables.(p.pid) (Rib.mk s (Rib.Proto (p.protocol, `Internal)))))
          (Process.covering catalog ifc)
      | None -> ())
    catalog.topo.ifaces;
  Array.iter
    (fun (p : Process.t) ->
      List.iter
        (function
          | Ast.Net_mask pr ->
            ignore (install tables.(p.pid) (Rib.mk pr (Rib.Proto (Ast.Bgp, `Internal))))
          | _ -> ())
        p.ast.networks)
    catalog.processes;
  (* External offers on external peerings and IGP edge links. *)
  let inject_external (p : Process.t) ?(as_path = []) mk_source pass =
    List.iter
      (fun pr ->
        match pass (Rib.mk ~as_path pr mk_source) with
        | Some r -> ignore (install tables.(p.pid) r)
        | None -> ())
      external_prefixes
  in
  List.iter
    (fun (ep : Adjacency.external_peering) ->
      let p = catalog.processes.(ep.proc) in
      let pass =
        match
          List.find_opt (fun (n : Ast.neighbor) -> Ipv4.equal n.peer ep.peer_addr) p.ast.neighbors
        with
        | Some n -> neighbor_policy (config_of p) n Ast.In
        | None -> Option.some
      in
      inject_external p ~as_path:[ ep.remote_asn ] (Rib.Proto (Ast.Bgp, `External)) pass)
    graph.adjacency.external_peerings;
  List.iter
    (fun (pid, _subnet) ->
      let p = catalog.processes.(pid) in
      let ok = dlist_filter (config_of p) p Ast.In in
      inject_external p
        (Rib.Proto (p.protocol, `External))
        (fun r -> if ok r then Some r else None))
    graph.adjacency.igp_external_edges;
  (* Fixpoint propagation. *)
  let changed = ref true in
  let add_to_proc pid r =
    if install tables.(pid) r then begin
      incr installed;
      changed := true
    end
  in
  let adjacency_flow (a : Adjacency.t) src dst =
    let p = catalog.processes.(src) and q = catalog.processes.(dst) in
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
    let out_ok = dlist_filter ?via_iface:via_p (config_of p) p Ast.Out in
    let in_ok = dlist_filter ?via_iface:via_q (config_of q) q Ast.In in
    (* summary-only aggregates suppress their components on BGP
       advertisements *)
    let suppressing =
      match a.kind with
      | Adjacency.Igp _ -> []
      | Adjacency.Ibgp | Adjacency.Ebgp ->
        if p.protocol <> Ast.Bgp then []
        else
          List.filter_map
            (fun (agg, summary_only) -> if summary_only then Some agg else None)
            p.ast.aggregates
    in
    let suppressed (r : Rib.route) =
      List.exists (fun agg -> Prefix.subset r.dest agg && not (Prefix.equal r.dest agg)) suppressing
    in
    let rewrite : Rib.route -> Rib.route option =
      match a.kind with
      | Adjacency.Igp _ -> Option.some (* keep internal/external flavour *)
      | Adjacency.Ibgp ->
        (* IBGP non-transitivity (RFC 4456): IBGP-learned routes are only
           re-advertised toward route-reflector clients, or when they came
           from a client *)
        let toward_client = match out_n with Some n -> n.route_reflector_client | None -> false in
        let becomes_client_route =
          match in_n with Some n -> n.route_reflector_client | None -> false
        in
        fun r ->
          if r.via_ibgp && (not r.from_client) && not toward_client then None
          else
            Some
              {
                r with
                source = Rib.Proto (Ast.Bgp, `Internal);
                via_ibgp = true;
                from_client = becomes_client_route;
              }
      | Adjacency.Ebgp ->
        (* EBGP loop prevention: drop routes whose AS path already contains
           the receiver's AS, and prepend the sender's *)
        let q_asn = q.proc_id and p_asn = p.proc_id in
        fun r ->
          if (match q_asn with Some qa -> List.mem qa r.as_path | None -> false) then None
          else
            Some
              {
                r with
                source = Rib.Proto (Ast.Bgp, `External);
                via_ibgp = false;
                from_client = false;
                as_path = (match p_asn with Some pa -> pa :: r.as_path | None -> r.as_path);
              }
    in
    (* BGP sessions also apply per-neighbor policy. *)
    let policy : Rib.route -> Rib.route option =
      match a.kind with
      | Adjacency.Igp _ -> Option.some
      | Adjacency.Ibgp | Adjacency.Ebgp ->
        let out_policy =
          match out_n with Some n -> neighbor_policy (config_of p) n Ast.Out | None -> Option.some
        in
        let in_policy =
          match in_n with Some n -> neighbor_policy (config_of q) n Ast.In | None -> Option.some
        in
        fun r -> Option.bind (out_policy r) in_policy
    in
    let offer r =
      if out_ok r && in_ok r && not (suppressed r) then
        match Option.bind (rewrite r) policy with
        | Some r' -> add_to_proc dst r'
        | None -> ()
    in
    { source = tables.(src); cursor = 0; offer }
  in
  let redistribution_flow (e : Process_graph.edge) =
    match (e.kind, e.dst) with
    | Process_graph.Redistribution rd, Process_graph.Proc dst ->
      let q = catalog.processes.(dst) in
      let map =
        match rd.route_map with Some name -> route_map (config_of q) name | None -> Option.some
      in
      let offer (r : Rib.route) =
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
        match map r with
        | Some r ->
          let r = match rd.metric with Some m -> { r with Rib.metric = m } | None -> r in
          incr redist_events;
          add_to_proc dst r
        | None -> ()
      in
      let flow source = { source; cursor = 0; offer } in
      (match e.src with
       | Process_graph.Local ri -> Some (flow (table_of_rib local_ribs.(ri)))
       | Process_graph.Proc pid -> Some (flow tables.(pid))
       | Process_graph.Router_rib _ -> None)
    | _ -> None
  in
  (* The round-robin order: both directions of every adjacency, then
     every redistribution edge. *)
  let flows =
    Array.of_list
      (List.concat_map
         (fun (a : Adjacency.t) -> [ adjacency_flow a a.a a.b; adjacency_flow a a.b a.a ])
         graph.adjacency.adjacencies
      @ List.filter_map redistribution_flow (Process_graph.redistribution_edges graph))
  in
  (* BGP aggregates: originate the aggregate once a strictly-more-specific
     component is present in the process RIB.  Each aggregate scans only
     the entries logged since its last scan, and stops scanning once
     originated: re-originating is a no-op, as for flows. *)
  let aggregates =
    Array.to_list catalog.processes
    |> List.concat_map (fun (p : Process.t) ->
           if p.protocol <> Ast.Bgp then []
           else
             List.map
               (fun (aggregate, _summary_only) ->
                 { pid = p.pid; aggregate; scanned = 0; originated = false })
               p.ast.aggregates)
  in
  let originate_aggregates () =
    List.iter
      (fun ag ->
        if not ag.originated then begin
          let t = tables.(ag.pid) in
          let has_component = ref false in
          for j = ag.scanned to t.logged - 1 do
            let dest = t.log.(j).route.dest in
            if Prefix.subset dest ag.aggregate && not (Prefix.equal dest ag.aggregate) then
              has_component := true
          done;
          ag.scanned <- t.logged;
          if !has_component then begin
            ag.originated <- true;
            add_to_proc ag.pid (Rib.mk ag.aggregate (Rib.Proto (Ast.Bgp, `Internal)))
          end
        end)
      aggregates
  in
  (* default-information originate: an IGP process injects a default route
     when its router holds one from some other source (local static or
     another process) *)
  let originators =
    List.filter
      (fun (p : Process.t) -> p.ast.default_originate && p.protocol <> Ast.Bgp)
      (Array.to_list catalog.processes)
  in
  let originate_defaults () =
    List.iter
      (fun (p : Process.t) ->
        let router_has_default =
          Rib.find local_ribs.(p.router) Prefix.default <> None
          || List.exists
               (fun pid -> pid <> p.pid && Keys.mem tables.(pid).entries (key Prefix.default))
               catalog.by_router.(p.router)
        in
        if router_has_default then
          add_to_proc p.pid (Rib.mk Prefix.default (Rib.Proto (p.protocol, `External))))
      originators
  in
  (* One generation of sends is one round of the round-robin schedule
     (test/propagate_ref.ml), with the same order within it, so every
     round ends with the same RIBs.  The cancel poll is the non-raising
     kind: a tripped token exits the round loop exactly like an exhausted
     round budget, so the caller still gets the partial RIBs with
     [converged = false]. *)
  let iterations = ref 0 in
  while
    !changed
    && !iterations < limits.max_propagate_iterations
    && not (Rd_util.Cancel.cancelled cancel)
  do
    changed := false;
    incr iterations;
    Rd_util.Fault.fault_point faults ~site:Rd_util.Fault.propagate_fixpoint;
    Array.iter send flows;
    originate_aggregates ();
    originate_defaults ()
  done;
  (* [changed] still set means the round budget cut the fixpoint short:
     a degraded (under-approximated) result, recorded rather than
     raised so callers can keep the partial RIBs. *)
  let converged = not !changed in
  let proc_ribs = Array.map freeze tables in
  (match metrics with
   | None -> ()
   | Some _ ->
     Rd_util.Metrics.incr metrics "propagate.runs";
     Rd_util.Metrics.incr metrics ~by:!iterations "propagate.fixpoint_iterations";
     Rd_util.Metrics.incr metrics ~by:!installed "propagate.routes_installed";
     Rd_util.Metrics.incr metrics ~by:!redist_events "propagate.redistributions");
  { graph; proc_ribs; local_ribs; iterations = !iterations; converged }

let rib_of_process t pid = t.proc_ribs.(pid)

(* Router RIB selection, on demand: nothing in the fixpoint reads it. *)
let rib_of_router t ri =
  List.fold_left
    (fun acc pid -> Rib.merge acc t.proc_ribs.(pid))
    t.local_ribs.(ri) t.graph.catalog.by_router.(ri)

let process_loads t =
  let loads = Array.to_list (Array.mapi (fun pid rib -> (pid, Rib.size rib)) t.proc_ribs) in
  List.sort (fun (_, a) (_, b) -> Int.compare b a) loads

let instance_load t (assignment : Instance.assignment) inst_id =
  let sizes =
    List.filter_map
      (fun (pid, sz) -> if assignment.of_process.(pid) = inst_id then Some sz else None)
      (process_loads t)
  in
  match sizes with
  | [] -> (0, 0.0)
  | _ ->
    ( List.fold_left max 0 sizes,
      float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int (List.length sizes) )

let instance_prefix_set t (assignment : Instance.assignment) inst_id =
  let inst = assignment.instances.(inst_id) in
  List.fold_left
    (fun acc pid -> Prefix_set.union acc (Rib.prefixes t.proc_ribs.(pid)))
    Prefix_set.empty inst.members

let forwards_to t ~router a = Rib.lookup (rib_of_router t router) a
