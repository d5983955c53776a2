open Rd_addr
open Rd_config

type rule = Locator.table -> Analysis.t -> Diag.t list

let router_file (a : Analysis.t) r = fst a.topo.routers.(r)

(* ---------------------------------------------------- per-file rules --- *)

(* Each rule is a query on one file's {!Locator} index; refs and defs
   are matched per file, since an IOS configuration is self-contained
   per device. *)

let describe = function
  | Locator.Acl -> ("access-list", "acl")
  | Route_map -> ("route-map", "route-map")
  | Prefix_list -> ("prefix-list", "prefix-list")

let duplicates ~file (loc : Locator.t) =
  List.filter_map
    (fun (name, line) ->
      match Locator.definition_line loc Acl name with
      | Some first when first < line ->
        Some
          (Diag.make ~file ~line Diag.Warning ~code:"lint-duplicate-acl"
             "access-list %s redefined (first defined at line %d)" name first)
      | _ -> None)
    loc.acl_blocks
  @
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun ({ name; seq; line } : Locator.entry) ->
      match seq with
      | Some s when Hashtbl.mem seen (name, s) ->
        Some
          (Diag.make ~file ~line Diag.Warning ~code:"lint-duplicate-route-map-seq"
             "route-map %s sequence %d redefined (first defined at line %d)" name s
             (Hashtbl.find seen (name, s)))
      | Some s ->
        Hashtbl.add seen (name, s) line;
        None
      | None -> None)
    loc.route_maps

(* Redistribution sources that need no metric when injected into OSPF:
   connected/static routes get a sensible default, other protocols land
   with an incomparable metric unless one is given. *)
let metric_exempt_source = function "connected" | "static" -> true | _ -> false

let redistribute_no_metric ~file (loc : Locator.t) =
  List.filter_map
    (fun ({ proto; source; args; line } : Locator.redistribution) ->
      if proto = "ospf" && (not (metric_exempt_source source)) && not (List.mem "metric" args)
      then
        Some
          (Diag.make ~file ~line Diag.Warning ~code:"lint-redistribute-no-metric"
             "redistribute %s into OSPF without an explicit metric" source)
      else None)
    loc.redistributions

let undefined ~file (loc : Locator.t) =
  List.filter_map
    (fun (kind, name, line) ->
      let noun, code = describe kind in
      if Locator.definition_line loc kind name = None then
        Some
          (Diag.make ~file ~line Diag.Error ~code:("lint-undefined-" ^ code)
             "%s %s is referenced but never defined" noun name)
      else None)
    loc.references

let unused ~file (loc : Locator.t) =
  let seen = Hashtbl.create 16 in
  List.iter (fun (kind, name, _) -> Hashtbl.replace seen (kind, name) ()) loc.references;
  List.filter_map
    (fun (kind, name, line) ->
      let noun, code = describe kind in
      if kind = Prefix_list || Hashtbl.mem seen (kind, name) then None
      else begin
        Hashtbl.add seen (kind, name) ();
        Some
          (Diag.make ~file ~line Diag.Warning ~code:("lint-unused-" ^ code)
             "%s %s is defined but never applied" noun name)
      end)
    loc.definitions

(* A BGP neighbor needs remote-as, from its own statements or from the
   peer-group it last joined; a peer-group declaration is a template,
   not a session. *)
let neighbor_no_remote_as ~file (loc : Locator.t) =
  let bgp = List.filter (fun (n : Locator.neighbor) -> n.proto = "bgp") loc.neighbors in
  let args_of (n : Locator.neighbor) peer =
    List.filter_map
      (fun (m : Locator.neighbor) ->
        if m.block = n.block && m.peer = peer then Some m.args else None)
      bgp
  in
  let has_remote_as peer n =
    List.exists (function "remote-as" :: _ -> true | _ -> false) (args_of n peer)
  in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (n : Locator.neighbor) ->
      if Hashtbl.mem seen (n.block, n.peer) then None
      else begin
        Hashtbl.add seen (n.block, n.peer) ();
        let args = args_of n n.peer in
        let group =
          List.fold_left (fun g -> function "peer-group" :: g :: _ -> Some g | _ -> g) None args
        in
        if
          has_remote_as n.peer n
          || List.mem [ "peer-group" ] args
          || Option.fold ~none:false ~some:(fun g -> has_remote_as g n) group
        then None
        else
          Some
            (Diag.make ~file ~line:n.line Diag.Error ~code:"lint-neighbor-no-remote-as"
               "BGP neighbor %s has no remote-as; the session cannot establish" n.peer)
      end)
    bgp

let interface_overlap ~file (loc : Locator.t) =
  let addrs =
    Array.of_list
      (List.filter_map
         (fun ({ ifname; words; line } : Locator.address) ->
           match words with
           | a :: m :: _ ->
             Option.bind (Ipv4.of_string a) (fun a ->
                 Option.bind (Ipv4.of_string m) (Prefix.of_addr_mask a))
             |> Option.map (fun p -> (ifname, p, line))
           | _ -> None)
         loc.addresses)
  in
  let acc = ref [] in
  Array.iteri
    (fun j (ifj, pj, lj) ->
      for i = 0 to j - 1 do
        let ifi, pi, _ = addrs.(i) in
        if Prefix.overlap pi pj then
          acc :=
            Diag.make ~file ~line:lj Diag.Warning ~code:"lint-interface-overlap"
              "interface %s address %s overlaps %s on interface %s" ifj (Prefix.to_string pj)
              (Prefix.to_string pi) ifi
            :: !acc
      done)
    addrs;
  List.rev !acc

(* In this order, so that two findings on one line keep it after the
   stable sort by line. *)
let file_rules =
  [
    duplicates; redistribute_no_metric; undefined; unused; neighbor_no_remote_as;
    interface_overlap;
  ]

let lint_config ~file text =
  let _ast, parse_diags = Parser.parse_with_diags ~file text in
  let loc = Locator.of_text text in
  let line_of (d : Diag.t) = Option.value d.line ~default:0 in
  parse_diags
  @ List.stable_sort
      (fun a b -> Int.compare (line_of a) (line_of b))
      (List.concat_map (fun rule -> rule ~file loc) file_rules)

let lint_files ?jobs files =
  List.concat (Rd_util.Pool.parallel_map ?jobs (fun (f, text) -> lint_config ~file:f text) files)

(* ------------------------------------------------------ design rules --- *)

(* Each §8.1 check returns its findings in discovery order; [design]
   concatenates them and lists Warnings before Infos. *)

let unfiltered_peerings locators (t : Analysis.t) =
  let acc = ref [] in
  (* BGP sessions to the outside without route policy *)
  List.iter
    (fun (ep : Rd_routing.Adjacency.external_peering) ->
      let p = t.catalog.processes.(ep.proc) in
      let n =
        List.find_opt (fun (n : Ast.neighbor) -> Ipv4.equal n.peer ep.peer_addr) p.ast.neighbors
      in
      match n with
      | Some n when n.nb_dlists = [] && n.nb_route_maps = [] && n.nb_prefix_lists = [] ->
        let file = router_file t p.router in
        acc :=
          Diag.make ~file
            ?line:(Locator.find locators file (fun loc -> Locator.neighbor_line loc n.peer))
            Diag.Warning ~code:"lint-unfiltered-peering"
            "EBGP session to AS %d (peer %s) has no distribute-list, prefix-list or route-map"
            ep.remote_asn (Ipv4.to_string ep.peer_addr)
          :: !acc
      | _ -> ())
    t.graph.adjacency.external_peerings;
  (* external-facing interfaces without packet filters *)
  Array.iter
    (fun (i : Rd_topo.Topology.iface) ->
      if Rd_topo.Topology.facing_of t.topo i.router i.if_index = Rd_topo.Topology.External
      then begin
        let file, cfg = t.topo.routers.(i.router) in
        match Ast.find_interface cfg i.name with
        | Some ifc when ifc.access_groups = [] ->
          acc :=
            Diag.make ~file
              ?line:(Locator.find locators file (fun loc -> Locator.interface_address_line loc i.name))
              Diag.Warning ~code:"lint-unfiltered-edge-interface"
              "external-facing interface %s carries no packet filter" i.name
            :: !acc
        | _ -> ()
      end)
    t.topo.ifaces;
  List.rev !acc

let incomplete_adjacencies locators (t : Analysis.t) =
  let acc = ref [] in
  (* links where exactly one endpoint is covered by a same-protocol process *)
  List.iter
    (fun (l : Rd_topo.Topology.link) ->
      let endpoints = l.endpoints in
      if List.length endpoints >= 2 then begin
        let covering (e : Rd_topo.Topology.iface) =
          match e.address with
          | None -> []
          | Some (a, _) ->
            List.filter_map
              (fun pid ->
                let p = t.catalog.processes.(pid) in
                if p.protocol <> Ast.Bgp && Rd_routing.Process.covers p a then Some p.protocol
                else None)
              t.catalog.by_router.(e.router)
        in
        let protos = List.map covering endpoints in
        let all_protos = List.sort_uniq compare (List.concat protos) in
        List.iter
          (fun proto ->
            let have = List.filter (fun ps -> List.mem proto ps) protos in
            if List.length have = 1 then begin
              let lonely =
                List.find (fun (e : Rd_topo.Topology.iface) -> List.mem proto (covering e)) endpoints
              in
              let file = router_file t lonely.router in
              acc :=
                Diag.make ~file
                  ?line:
                    (Locator.find locators file (fun loc ->
                         Locator.interface_address_line loc lonely.name))
                  Diag.Warning ~code:"lint-half-covered-link"
                  "link %s is covered by %s on only one endpoint — the adjacency cannot form"
                  (Prefix.to_string l.subnet_of_link)
                  (Ast.protocol_to_string proto)
                :: !acc
            end)
          all_protos
      end)
    t.topo.links;
  (* IGP processes with no adjacency in a multi-router network *)
  if Array.length t.topo.routers > 1 then begin
    let has_adj = Hashtbl.create 64 in
    List.iter
      (fun (a : Rd_routing.Adjacency.t) ->
        Hashtbl.replace has_adj a.a ();
        Hashtbl.replace has_adj a.b ())
      t.graph.adjacency.adjacencies;
    Array.iter
      (fun (p : Rd_routing.Process.t) ->
        if
          p.protocol <> Ast.Bgp
          && (not (Hashtbl.mem has_adj p.pid))
          && not (List.exists (fun (pid, _) -> pid = p.pid) t.graph.adjacency.igp_external_edges)
        then
          acc :=
            Diag.make ~file:(router_file t p.router) Diag.Info ~code:"lint-isolated-process"
              "%s process %s has no adjacency (single-router instance)"
              (Ast.protocol_to_string p.protocol)
              (match p.proc_id with Some i -> string_of_int i | None -> "-")
            :: !acc)
      t.catalog.processes
  end;
  List.rev !acc

let duplicate_addresses locators (t : Analysis.t) =
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  Array.iter
    (fun (i : Rd_topo.Topology.iface) ->
      match i.address with
      | Some (a, _) -> (
        let key = Ipv4.to_int a in
        match Hashtbl.find_opt seen key with
        | Some (r0, n0) when r0 <> i.router ->
          let file = router_file t i.router in
          acc :=
            Diag.make ~file
              ?line:(Locator.find locators file (fun loc -> Locator.interface_address_line loc i.name))
              Diag.Warning ~code:"lint-duplicate-address" "address %s on %s is also configured on %s:%s"
              (Ipv4.to_string a) i.name (router_file t r0) n0
            :: !acc
        | Some _ -> ()
        | None -> Hashtbl.replace seen key (i.router, i.name))
      | None -> ())
    t.topo.ifaces;
  List.rev !acc

let unresolved_static_next_hops _locators (t : Analysis.t) =
  List.concat_map
    (fun (file, (cfg : Ast.t)) ->
      let connected = List.concat_map Ast.interface_prefixes cfg.interfaces in
      List.filter_map
        (fun (s : Ast.static_route) ->
          let dest = Prefix.to_string s.sr_dest in
          match s.sr_next_hop with
          | Ast.Nh_addr nh when not (List.exists (Prefix.mem nh) connected) ->
            Some
              (Diag.make ~file Diag.Warning ~code:"lint-unresolved-next-hop"
                 "static route to %s points at %s, which is on no connected subnet" dest
                 (Ipv4.to_string nh))
          | Ast.Nh_iface ifname when Ast.find_interface cfg ifname = None ->
            Some
              (Diag.make ~file Diag.Warning ~code:"lint-unresolved-next-hop"
                 "static route to %s uses undefined interface %s" dest ifname)
          | _ -> None)
        cfg.statics)
    t.configs

let shared_static_destinations _locators (t : Analysis.t) =
  let dests = Hashtbl.create 64 in
  List.iter
    (fun (name, (cfg : Ast.t)) ->
      List.iter
        (fun (s : Ast.static_route) ->
          let cur = try Hashtbl.find dests s.sr_dest with Not_found -> [] in
          if not (List.mem name cur) then Hashtbl.replace dests s.sr_dest (name :: cur))
        cfg.statics)
    t.configs;
  Hashtbl.fold
    (fun dest routers acc ->
      if List.length routers >= 2 then
        Diag.make Diag.Info ~code:"lint-shared-static-destination"
          "%d routers (%s) hold static routes to %s — avoid maintaining them simultaneously"
          (List.length routers)
          (String.concat ", " (List.sort compare routers))
          (Prefix.to_string dest)
        :: acc
      else acc)
    dests []

let ospf_area_issues _locators (t : Analysis.t) =
  let acc = ref [] in
  List.iter
    (fun (info : Rd_routing.Areas.t) ->
      if List.length info.areas >= 2 && not info.has_backbone then
        acc :=
          Diag.make Diag.Warning ~code:"lint-ospf-no-backbone-area"
            "OSPF instance %d spans %d areas but has no area 0 — inter-area routes cannot flow"
            info.inst_id (List.length info.areas)
          :: !acc;
      (* areas reachable through a single ABR *)
      if info.has_backbone && List.length info.areas >= 2 then
        List.iter
          (fun (a : Rd_routing.Areas.area_info) ->
            if a.area <> 0 then
              match List.filter (fun r -> List.mem r a.routers) info.abrs with
              | [ abr ] ->
                acc :=
                  Diag.make ~file:(router_file t abr) Diag.Info ~code:"lint-single-abr-area"
                    "OSPF area %d hangs off a single area border router" a.area
                  :: !acc
              | _ -> ())
          info.areas)
    (Rd_routing.Areas.analyze t.catalog t.graph.assignment);
  List.rev !acc

let design_rules : rule list =
  [
    unfiltered_peerings; incomplete_adjacencies; duplicate_addresses; unresolved_static_next_hops;
    shared_static_destinations; ospf_area_issues;
  ]

let design ?files (t : Analysis.t) =
  let locators = Locator.of_files ?files () in
  let all = List.concat_map (fun rule -> rule locators t) design_rules in
  let warnings, infos = List.partition (fun (d : Diag.t) -> d.severity = Diag.Warning) all in
  warnings @ infos
