open Rd_addr
open Rd_routing

type t = {
  origins : Prefix_set.t array;
  routes : Prefix_set.t array;
  advertised : (int * Prefix_set.t) list;
  iterations : int;
  internal : Prefix_set.t;
}

(* Compute every instance's origin set in one pass over the interfaces,
   processes, and local redistributions. *)
let origins_bulk_direct (g : Instance_graph.t) =
  let catalog = g.catalog in
  let n = Array.length g.assignment.instances in
  let originated = Array.make n [] in
  let add i p = originated.(i) <- p :: originated.(i) in
  (* Subnets of interfaces covered by member processes. *)
  Array.iter
    (fun (ifc : Rd_topo.Topology.iface) ->
      match (ifc.address, ifc.subnet) with
      | Some (a, _), Some s ->
        List.iter
          (fun pid ->
            let p = catalog.processes.(pid) in
            if Process.covers p a then add g.assignment.of_process.(pid) s)
          catalog.by_router.(ifc.router)
      | _ -> ())
    catalog.topo.ifaces;
  (* BGP network statements and aggregate-addresses originate prefixes
     into the instance. *)
  Array.iter
    (fun (p : Process.t) ->
      List.iter
        (function
          | Rd_config.Ast.Net_mask pr -> add g.assignment.of_process.(p.pid) pr
          | Rd_config.Ast.Net_classful _ | Rd_config.Ast.Net_wildcard _ -> ())
        p.ast.networks;
      List.iter (fun (pr, _) -> add g.assignment.of_process.(p.pid) pr) p.ast.aggregates)
    catalog.processes;
  let origins = Array.map Prefix_set.of_prefixes originated in
  (* Connected/static redistribution into the instance. *)
  List.iter
    (fun (i, router, (r : Rd_config.Ast.redistribute)) ->
      let cfg = snd catalog.topo.routers.(router) in
      let subject =
        match r.source with
        | Rd_config.Ast.From_connected ->
          List.concat_map
            (fun (ifc : Rd_config.Ast.interface) ->
              if ifc.shutdown then [] else Rd_config.Ast.interface_prefixes ifc)
            cfg.interfaces
          |> Prefix_set.of_prefixes
        | Rd_config.Ast.From_static ->
          Prefix_set.of_prefixes
            (List.map (fun (s : Rd_config.Ast.static_route) -> s.sr_dest) cfg.statics)
        | Rd_config.Ast.From_protocol _ -> Prefix_set.empty
      in
      let filter =
        match r.route_map with
        | None -> Rd_policy.Route_filter.everything
        | Some name ->
          Rd_policy.Route_filter.compile cfg ~acls:[] ~prefix_lists:[]
            ~route_maps:[ name ] ()
      in
      origins.(i) <- Prefix_set.union origins.(i) (Rd_policy.Route_filter.apply filter subject))
    g.local_redists;
  origins

(* Per-domain graph→origins memo keyed by physical identity: the study
   pipeline asks for origins through [compute] and the analysis passes,
   all against the same built graph.  The cached
   array is shared — callers must treat it as read-only (the library
   does). *)
module Graph_tbl = Hashtbl.Make (struct
  type t = Instance_graph.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let origins_key : Prefix_set.t array Graph_tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Graph_tbl.create 8)

let origins_limit = 64

let origins_bulk (g : Instance_graph.t) =
  let tbl = Domain.DLS.get origins_key in
  match Graph_tbl.find_opt tbl g with
  | Some o -> o
  | None ->
    let o = origins_bulk_direct g in
    if Graph_tbl.length tbl > origins_limit then Graph_tbl.reset tbl;
    Graph_tbl.add tbl g o;
    o

(* What each external AS can hear from us, after fixpoint.  Accumulated
   in a table keyed by AS (the edge list can mention one AS many times),
   then ordered by descending last occurrence in the edge list — the
   order the original assoc-list accumulation produced. *)
let advertised_of (g : Instance_graph.t) routes =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun k (e : Instance_graph.edge) ->
      match (e.src, e.dst) with
      | Instance_graph.Inst i, Instance_graph.External a ->
        let out = Rd_policy.Route_filter.apply e.filter routes.(i) in
        (match Hashtbl.find_opt tbl a with
         | Some (cur, _) -> Hashtbl.replace tbl a (Prefix_set.union cur out, k)
         | None -> Hashtbl.replace tbl a (out, k))
      | _ -> ())
    g.edges;
  Hashtbl.fold (fun a (s, k) acc -> (a, s, k) :: acc) tbl []
  |> List.sort (fun (_, _, k1) (_, _, k2) -> Int.compare k2 k1)
  |> List.map (fun (a, s, _) -> (a, s))

(* [default-information originate]: the simulator injects a default route
   into an IGP process whose router holds one from some other source (a
   local static default, or another process's RIB at fixpoint).  The
   static over-approximation of that condition: the router configures a
   static default, or hosts any other routing process (which *may* hold a
   default at fixpoint).  Seeded into the instance's route set — not its
   origins, which drive host attachment and the internal space. *)
let default_originations (g : Instance_graph.t) =
  let catalog = g.catalog in
  let insts = ref [] in
  Array.iter
    (fun (p : Process.t) ->
      if p.ast.default_originate && p.protocol <> Rd_config.Ast.Bgp then begin
        let cfg = snd catalog.topo.routers.(p.router) in
        let has_static_default =
          List.exists
            (fun (s : Rd_config.Ast.static_route) -> Prefix.equal s.sr_dest Prefix.default)
            cfg.statics
        in
        let has_other_proc = List.exists (fun pid -> pid <> p.pid) catalog.by_router.(p.router) in
        if has_static_default || has_other_proc then
          insts := g.assignment.of_process.(p.pid) :: !insts
      end)
    catalog.processes;
  List.sort_uniq Int.compare !insts

let seed_routes (g : Instance_graph.t) origins =
  let routes = Array.map Fun.id origins in
  let default = Prefix_set.of_prefix Prefix.default in
  List.iter (fun i -> routes.(i) <- Prefix_set.union routes.(i) default) (default_originations g);
  routes

let initial_routes (g : Instance_graph.t) = seed_routes g (origins_bulk g)

let fixpoint_site = "reach.fixpoint"

let finish ?metrics ~stats0 g origins routes iterations =
  let advertised = advertised_of g routes in
  let internal = Array.fold_left Prefix_set.union Prefix_set.empty origins in
  (match metrics with
   | None -> ()
   | Some _ ->
     let stats1 = Prefix_set.stats () in
     Rd_util.Metrics.incr metrics "reach.computations";
     Rd_util.Metrics.incr metrics ~by:iterations "reach.fixpoint_iterations";
     Rd_util.Metrics.observe metrics "reach.iterations" (float_of_int iterations);
     Rd_util.Metrics.incr metrics
       ~by:(stats1.Prefix_set.nodes - stats0.Prefix_set.nodes)
       "pset.nodes";
     Rd_util.Metrics.incr metrics
       ~by:(stats1.Prefix_set.memo_hits - stats0.Prefix_set.memo_hits)
       "pset.memo_hits";
     Rd_util.Metrics.incr metrics
       ~by:(stats1.Prefix_set.memo_misses - stats0.Prefix_set.memo_misses)
       "pset.memo_misses");
  { origins; routes; advertised; iterations; internal }

(* The legacy fixpoint: sweep every edge in rounds until a round changes
   nothing.  Retained as executable reference semantics for the worklist
   — the regression suite checks [compute] against it on all studied
   networks. *)
let compute_rounds ?cancel (g : Instance_graph.t) =
  let stats0 = Prefix_set.stats () in
  let origins = origins_bulk g in
  let routes = seed_routes g origins in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    changed := false;
    incr iterations;
    Rd_util.Cancel.check ~site:fixpoint_site cancel;
    Rd_util.Limits.check ~site:fixpoint_site
      ~budget:Rd_util.Limits.default.max_fixpoint_iterations !iterations;
    List.iter
      (fun (e : Instance_graph.edge) ->
        let inflow =
          match e.src with
          | Instance_graph.External _ -> Prefix_set.full
          | Instance_graph.Inst i -> routes.(i)
        in
        match e.dst with
        | Instance_graph.External _ -> ()
        | Instance_graph.Inst d ->
          let add = Rd_policy.Route_filter.apply e.filter inflow in
          let merged = Prefix_set.union routes.(d) add in
          if not (Prefix_set.equal merged routes.(d)) then begin
            routes.(d) <- merged;
            changed := true
          end)
      g.edges
  done;
  finish ~stats0 g origins routes !iterations

(* Worklist fixpoint.  Instead of sweeping the whole edge list until a
   quiet round, keep a frontier of instances whose route set changed and
   only push along their outgoing edges (indexed once per call).  Each
   frontier generation counts as one iteration and visits the
   fault/budget hooks exactly like one round of the legacy sweep, so
   fault plans and [max_fixpoint_iterations] budgets keep their observable
   meaning (budget 0 still raises before any edge is processed). *)
let compute ?metrics ?faults ?cancel ?(limits = Rd_util.Limits.default)
    ?(external_offers = Prefix_set.full) (g : Instance_graph.t) =
  let stats0 = Prefix_set.stats () in
  let origins = origins_bulk g in
  let n = Array.length origins in
  let routes = seed_routes g origins in
  let out_index = Array.make n [] in
  let external_in = ref [] in
  List.iter
    (fun (e : Instance_graph.edge) ->
      match (e.src, e.dst) with
      | Instance_graph.Inst s, Instance_graph.Inst _ -> out_index.(s) <- e :: out_index.(s)
      | Instance_graph.External _, Instance_graph.Inst _ -> external_in := e :: !external_in
      | _, Instance_graph.External _ -> ())
    g.edges;
  Array.iteri (fun i l -> out_index.(i) <- List.rev l) out_index;
  let dirty = Array.make n false in
  let frontier = ref [] in
  let mark d =
    if not dirty.(d) then begin
      dirty.(d) <- true;
      frontier := d :: !frontier
    end
  in
  let flow (e : Instance_graph.edge) inflow =
    match e.dst with
    | Instance_graph.External _ -> ()
    | Instance_graph.Inst d ->
      let add = Rd_policy.Route_filter.apply e.filter inflow in
      let merged = Prefix_set.union routes.(d) add in
      if not (Prefix_set.equal merged routes.(d)) then begin
        routes.(d) <- merged;
        mark d
      end
  in
  let iterations = ref 0 in
  let generation work =
    incr iterations;
    Rd_util.Fault.fault_point faults ~site:fixpoint_site;
    Rd_util.Cancel.check ~site:fixpoint_site cancel;
    Rd_util.Limits.check ~site:fixpoint_site ~budget:limits.max_fixpoint_iterations
      !iterations;
    work ()
  in
  (* Generation 1 seeds the pool: the constant external offers flow in
     once, so those edges never need revisiting, then every instance
     pushes its routes out. *)
  generation (fun () ->
      List.iter (fun e -> flow e external_offers) (List.rev !external_in);
      for i = 0 to n - 1 do
        dirty.(i) <- false;
        List.iter (fun e -> flow e routes.(i)) out_index.(i)
      done;
      (* An instance marked before its own seed visit was already pushed
         with the updated set; drop it from the frontier. *)
      frontier := List.filter (fun i -> dirty.(i)) !frontier);
  while !frontier <> [] do
    let work = List.rev !frontier in
    frontier := [];
    generation (fun () ->
        List.iter
          (fun i ->
            dirty.(i) <- false;
            List.iter (fun e -> flow e routes.(i)) out_index.(i))
          work)
  done;
  finish ?metrics ~stats0 g origins routes !iterations

let routes_of t i = t.routes.(i)

let internal_space t = t.internal

let external_routes_of t i = Prefix_set.diff t.routes.(i) t.internal

let instance_of_addr t a =
  let n = Array.length t.origins in
  let rec go i = if i = n then None else if Prefix_set.mem a t.origins.(i) then Some i else go (i + 1) in
  go 0

let can_reach t ~src ~dst =
  match instance_of_addr t src with
  | None -> false
  | Some i -> Prefix_set.mem dst t.routes.(i)

let has_default t i = Prefix_set.mem Ipv4.zero t.routes.(i)
