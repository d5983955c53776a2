type t = {
  name : string;
  configs : (string * Rd_config.Ast.t) list;
  topo : Rd_topo.Topology.t;
  catalog : Rd_routing.Process.catalog;
  graph : Rd_routing.Instance_graph.t;
  blocks : Rd_addrspace.Blocks.block list;
  filter_stats : Rd_policy.Filter_stats.placement;
  diags : Rd_config.Diag.t list;
}

(* Every stage span carries the network name so per-network timelines
   can be pulled apart in a merged trace; the enclosing "analyze" span
   (category "network") is what the study counts per network. *)
let stage ?trace ~network name f =
  Rd_util.Trace.span ~cat:"stage"
    ~args:[ ("network", Rd_util.Trace.String network) ]
    trace name f

let network_span ?trace ~name f =
  Rd_util.Trace.span ~cat:"network"
    ~args:[ ("network", Rd_util.Trace.String name) ]
    trace "analyze" f

let run_stages ?trace ?metrics ?faults ?cancel ?(limits = Rd_util.Limits.default) ~diags
    ~name configs =
  (* Each stage doubles as a fault site (key = network name) so the chaos
     suite can kill exactly one network's analysis mid-pipeline; the
     cancel poll at the same boundary stops a deadline-struck analysis
     between stages. *)
  let stage n f =
    stage ?trace ~network:name n (fun () ->
        Rd_util.Fault.fault_point faults ~site:(Rd_util.Fault.analysis_site n) ~key:name;
        Rd_util.Cancel.check ~site:("analysis." ^ n) cancel;
        f ())
  in
  let topo = stage "topology" (fun () -> Rd_topo.Topology.build configs) in
  let catalog = stage "catalog" (fun () -> Rd_routing.Process.build topo) in
  let graph =
    stage "instance-graph" (fun () -> Rd_routing.Instance_graph.build ?metrics catalog)
  in
  let blocks, diags =
    match
      stage "blocks" (fun () ->
          Rd_addrspace.Blocks.discover ?metrics ~limits
            (Rd_addrspace.Blocks.subnets_of_configs configs))
    with
    | blocks -> (blocks, diags)
    | exception (Rd_util.Limits.Budget_exceeded _ as e) ->
      (* A pathological addressing plan degrades to "no blocks" plus a
         diagnostic; the rest of the analysis is unaffected. *)
      ( [],
        diags
        @ [
            Rd_config.Diag.make Rd_config.Diag.Error ~code:"budget-exceeded" "%s"
              (Printexc.to_string e);
          ] )
  in
  let filter_stats = stage "filter-stats" (fun () -> Rd_policy.Filter_stats.analyze topo) in
  Rd_util.Metrics.incr metrics "analysis.networks";
  Rd_util.Metrics.incr metrics ~by:(Array.length topo.routers) "analysis.routers";
  { name; configs; topo; catalog; graph; blocks; filter_stats; diags }

let analyze_asts ?trace ?metrics ?cancel ?(diags = []) ~name configs =
  network_span ?trace ~name (fun () -> run_stages ?trace ?metrics ?cancel ~diags ~name configs)

let drop_diag file (fl : Rd_util.Pool.failure) =
  let code =
    match Rd_util.Limits.site_of_exn fl.exn with
    | Some _ -> "budget-exceeded"
    | None -> "config-failed"
  in
  Rd_config.Diag.make ~file Rd_config.Diag.Error ~code "configuration dropped: %s"
    (Printexc.to_string fl.exn)

let analyze ?trace ?metrics ?jobs ?faults ?cancel ?(limits = Rd_util.Limits.default) ~name
    files =
  network_span ?trace ~name (fun () ->
      let parsed =
        stage ?trace ~network:name "parse" (fun () ->
            Rd_util.Pool.parallel_map_results ?jobs ?trace ?metrics ?faults
              (fun (f, text) ->
                let key = name ^ "/" ^ f in
                Rd_util.Fault.fault_point faults ~site:Rd_util.Fault.parse_file ~key;
                Rd_util.Cancel.check ~site:"parse.file" cancel;
                Rd_util.Limits.check ~site:"parse.config-bytes"
                  ~budget:limits.max_config_bytes (String.length text);
                let text = Rd_util.Fault.corrupt faults ~site:Rd_util.Fault.parse_bytes ~key text in
                let ast, ds =
                  Rd_config.Parser.parse_with_diags ?metrics ?cancel ~file:f text
                in
                ((f, ast), ds))
              files)
      in
      (* A timed-out parse is a network-level event, not a per-file
         drop: the token stays tripped, so re-raise here and let the
         network's supervisor record the degradation. *)
      Rd_util.Cancel.check ~site:"parse.file" cancel;
      (* A file whose parse task failed (oversized, or chaos-killed) is
         dropped from the network rather than aborting it; the drop is
         recorded as a coded diagnostic on that file. *)
      let keep, dropped =
        List.fold_left2
          (fun (keep, dropped) (f, _) -> function
            | Ok v -> (v :: keep, dropped)
            | Error fl -> (keep, drop_diag f fl :: dropped))
          ([], []) files parsed
      in
      let keep = List.rev keep and dropped = List.rev dropped in
      let asts = List.map fst keep in
      let diags = List.concat_map snd keep @ dropped in
      run_stages ?trace ?metrics ?faults ?cancel ~limits ~diags ~name asts)

let router_count t = Array.length t.topo.routers

let instance_count t = Array.length t.graph.assignment.instances

let instances t = Array.to_list t.graph.assignment.instances

let largest_instance t =
  List.fold_left
    (fun best (i : Rd_routing.Instance.t) ->
      match best with
      | None -> Some i
      | Some b -> if Rd_routing.Instance.size i > Rd_routing.Instance.size b then Some i else best)
    None (instances t)

let internal_bgp_asns t =
  List.sort_uniq Int.compare (List.filter_map (fun (i : Rd_routing.Instance.t) -> i.asn) (instances t))

let external_asns t = Rd_routing.Instance_graph.external_asns t.graph

let config_sizes t = List.map (fun (_, (c : Rd_config.Ast.t)) -> c.total_lines) t.configs

let summary t =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "network %s\n" t.name;
  pf "  routers: %d, interfaces: %d (%d unnumbered)\n" (router_count t)
    t.topo.total_interfaces t.topo.unnumbered_count;
  pf "  links: %d, external-facing interfaces: %d\n" (List.length t.topo.links)
    (List.length (Rd_topo.Topology.external_interfaces t.topo));
  pf "  routing processes: %d in %d instances\n"
    (Array.length t.catalog.processes)
    (instance_count t);
  let area_info = Rd_routing.Areas.analyze t.catalog t.graph.assignment in
  List.iter
    (fun (i : Rd_routing.Instance.t) ->
      if Rd_routing.Instance.size i > 1 then begin
        pf "    %s" (Rd_routing.Instance.to_string i);
        (match
           List.find_opt (fun (a : Rd_routing.Areas.t) -> a.inst_id = i.inst_id) area_info
         with
         | Some a when List.length a.areas > 1 ->
           pf " [%d areas, %d ABRs]" (List.length a.areas) (List.length a.abrs)
         | _ -> ());
        (match Rd_routing.Instance_graph.ibgp_mesh_completeness t.graph i.inst_id with
         | Some c -> pf " [ibgp mesh %.0f%%]" (100.0 *. c)
         | None -> ());
        pf "\n"
      end)
    (instances t);
  let singletons =
    List.length (List.filter (fun i -> Rd_routing.Instance.size i = 1) (instances t))
  in
  if singletons > 0 then pf "    (and %d single-router instances)\n" singletons;
  pf "  internal BGP ASs: %d, external peer ASs: %d\n"
    (List.length (internal_bgp_asns t))
    (List.length (external_asns t));
  pf "  address blocks: %d\n" (List.length t.blocks);
  pf "  filter rules: %d total, %d on internal interfaces\n" t.filter_stats.total_rules
    t.filter_stats.internal_rules;
  (match Rd_config.Diag.counts t.diags with
   | 0, 0, 0 -> ()
   | e, w, i -> pf "  diagnostics: %d errors, %d warnings, %d notes\n" e w i);
  let dropped =
    List.length
      (List.filter
         (fun (d : Rd_config.Diag.t) ->
           d.code = "config-failed" || (d.code = "budget-exceeded" && d.file <> None))
         t.diags)
  in
  if dropped > 0 then pf "  degraded: %d configuration files dropped\n" dropped;
  Buffer.contents buf
