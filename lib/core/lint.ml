open Rd_addr
open Rd_config

(* A referencable entity kind; refs and defs are matched per file, since an
   IOS configuration is self-contained per device. *)
type kind = Acl | Route_map | Prefix_list

let describe = function
  | Acl -> "access-list"
  | Route_map -> "route-map"
  | Prefix_list -> "prefix-list"

let undefined_code = function
  | Acl -> "lint-undefined-acl"
  | Route_map -> "lint-undefined-route-map"
  | Prefix_list -> "lint-undefined-prefix-list"

(* Redistribution sources that need no metric when injected into OSPF:
   connected/static routes get a sensible default, other protocols land
   with an incomparable metric unless one is given. *)
let metric_exempt_source = function "connected" | "static" -> true | _ -> false

let lint_config ~file text =
  let _ast, parse_diags = Parser.parse_with_diags ~file text in
  let rules = ref [] in
  let emit ?line severity ~code fmt =
    Printf.ksprintf
      (fun message -> rules := { Diag.severity; code; file = Some file; line; message } :: !rules)
      fmt
  in
  let acl_defs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rm_defs : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let rm_seqs : (string * int, int) Hashtbl.t = Hashtbl.create 8 in
  let pl_defs : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let def tbl name lineno = if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name lineno in
  let refs = ref [] in
  (* (kind, name, lineno) in reverse document order *)
  let add_ref kind name lineno = refs := (kind, name, lineno) :: !refs in
  (* BGP neighbors: (block id, peer) -> (first line, saw remote-as) *)
  let neighbors : (int * string, int * bool ref) Hashtbl.t = Hashtbl.create 8 in
  (* (block, name) of [neighbor <name> peer-group] declarations, and
     (block, peer) -> group of [neighbor <peer> peer-group <group>]
     memberships: a member inherits the group's remote-as. *)
  let peer_groups : (int * string, unit) Hashtbl.t = Hashtbl.create 4 in
  let group_membership : (int * string, string) Hashtbl.t = Hashtbl.create 4 in
  let if_addrs = ref [] in
  (* (interface name, prefix, lineno) in reverse document order *)
  let context = ref [] in
  let block_id = ref 0 in
  let top (l : Lexer.line) =
    incr block_id;
    context := l.words;
    match l.words with
    | "access-list" :: name :: _ -> def acl_defs name l.lineno
    | [ "ip"; "access-list"; ("standard" | "extended"); name ] ->
      (match Hashtbl.find_opt acl_defs name with
       | Some first ->
         emit ~line:l.lineno Diag.Warning ~code:"lint-duplicate-acl"
           "access-list %s redefined (first defined at line %d)" name first
       | None -> Hashtbl.add acl_defs name l.lineno)
    | "route-map" :: name :: rest ->
      def rm_defs name l.lineno;
      (match rest with
       | [ _action; seq ] ->
         (match int_of_string_opt seq with
          | Some s ->
            (match Hashtbl.find_opt rm_seqs (name, s) with
             | Some first ->
               emit ~line:l.lineno Diag.Warning ~code:"lint-duplicate-route-map-seq"
                 "route-map %s sequence %d redefined (first defined at line %d)" name s first
             | None -> Hashtbl.add rm_seqs (name, s) l.lineno)
          | None -> ())
       | _ -> ())
    | "ip" :: "prefix-list" :: name :: _ -> def pl_defs name l.lineno
    | _ -> ()
  in
  let interface_sub ifname (l : Lexer.line) =
    match l.words with
    | "ip" :: "access-group" :: name :: _ -> add_ref Acl name l.lineno
    | "ip" :: "address" :: a :: m :: _ ->
      (match Ipv4.of_string a with
       | Some addr ->
         (match Option.bind (Ipv4.of_string m) (Prefix.of_addr_mask addr) with
          | Some p -> if_addrs := (ifname, p, l.lineno) :: !if_addrs
          | None -> ())
       | None -> ())
    | _ -> ()
  in
  let rec scan_route_map_refs lineno = function
    (* route-map bodies: match ip address [prefix-list] N1 N2 ..., and
       continue/next-hop style lines are irrelevant here. *)
    | "match" :: "ip" :: "address" :: "prefix-list" :: names ->
      List.iter (fun n -> add_ref Prefix_list n lineno) names
    | "match" :: "ip" :: "address" :: names ->
      List.iter (fun n -> add_ref Acl n lineno) names
    | _ :: rest -> scan_route_map_refs lineno rest
    | [] -> ()
  in
  let router_sub proto (l : Lexer.line) =
    match l.words with
    | "distribute-list" :: name :: _ -> add_ref Acl name l.lineno
    | "redistribute" :: source :: rest ->
      (let rec route_map_of = function
         | "route-map" :: name :: _ -> Some name
         | _ :: tl -> route_map_of tl
         | [] -> None
       in
       match route_map_of rest with
       | Some name -> add_ref Route_map name l.lineno
       | None -> ());
      if proto = "ospf" && (not (metric_exempt_source source))
         && not (List.mem "metric" rest)
      then
        emit ~line:l.lineno Diag.Warning ~code:"lint-redistribute-no-metric"
          "redistribute %s into OSPF without an explicit metric" source
    | "neighbor" :: peer :: rest ->
      if proto = "bgp" then begin
        let entry =
          match Hashtbl.find_opt neighbors (!block_id, peer) with
          | Some e -> e
          | None ->
            let e = (l.lineno, ref false) in
            Hashtbl.add neighbors (!block_id, peer) e;
            e
        in
        match rest with
        | "remote-as" :: _ -> snd entry := true
        | [ "peer-group" ] -> Hashtbl.replace peer_groups (!block_id, peer) ()
        | "peer-group" :: group :: _ ->
          Hashtbl.replace group_membership (!block_id, peer) group
        | _ -> ()
      end;
      (match rest with
       | "distribute-list" :: name :: _ -> add_ref Acl name l.lineno
       | "filter-list" :: _ -> ()
       | "prefix-list" :: name :: _ -> add_ref Prefix_list name l.lineno
       | "route-map" :: name :: _ -> add_ref Route_map name l.lineno
       | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (l : Lexer.line) ->
      if l.indent = 0 then top l
      else
        match !context with
        | "interface" :: ifname :: _ -> interface_sub ifname l
        | "router" :: proto :: _ -> router_sub proto l
        | "route-map" :: _ -> scan_route_map_refs l.lineno l.words
        | "line" :: _ ->
          (match l.words with
           | "access-class" :: name :: _ -> add_ref Acl name l.lineno
           | _ -> ())
        | _ -> ())
    (fst (Lexer.lines_of_string text));
  (* Dangling references. *)
  let defs_of = function Acl -> acl_defs | Route_map -> rm_defs | Prefix_list -> pl_defs in
  let referenced : (kind * string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (kind, name, lineno) ->
      Hashtbl.replace referenced (kind, name) ();
      if not (Hashtbl.mem (defs_of kind) name) then
        emit ~line:lineno Diag.Error ~code:(undefined_code kind) "%s %s is referenced but never defined"
          (describe kind) name)
    (List.rev !refs);
  (* Unused definitions. *)
  let unused tbl kind code =
    Hashtbl.iter
      (fun name lineno ->
        if not (Hashtbl.mem referenced (kind, name)) then
          emit ~line:lineno Diag.Warning ~code "%s %s is defined but never applied" (describe kind)
            name)
      tbl
  in
  unused acl_defs Acl "lint-unused-acl";
  unused rm_defs Route_map "lint-unused-route-map";
  (* BGP neighbors missing remote-as. *)
  Hashtbl.iter
    (fun (block, peer) (lineno, has_remote) ->
      (* A peer-group declaration is a template, not a session; a
         member whose group supplies remote-as inherits it. *)
      let group_covers =
        match Hashtbl.find_opt group_membership (block, peer) with
        | Some group -> (
          match Hashtbl.find_opt neighbors (block, group) with
          | Some (_, group_remote) -> !group_remote
          | None -> false)
        | None -> false
      in
      if
        (not !has_remote)
        && (not (Hashtbl.mem peer_groups (block, peer)))
        && not group_covers
      then
        emit ~line:lineno Diag.Error ~code:"lint-neighbor-no-remote-as"
          "BGP neighbor %s has no remote-as; the session cannot establish" peer)
    neighbors;
  (* Interface address overlaps within this router. *)
  let addrs = Array.of_list (List.rev !if_addrs) in
  Array.iteri
    (fun j (ifj, pj, lj) ->
      for i = 0 to j - 1 do
        let ifi, pi, _ = addrs.(i) in
        if Prefix.overlap pi pj then
          emit ~line:lj Diag.Warning ~code:"lint-interface-overlap"
            "interface %s address %s overlaps %s on interface %s" ifj (Prefix.to_string pj)
            (Prefix.to_string pi) ifi
      done)
    addrs;
  let line_of (d : Diag.t) = Option.value d.line ~default:0 in
  let rule_diags =
    List.stable_sort (fun a b -> Int.compare (line_of a) (line_of b)) (List.rev !rules)
  in
  parse_diags @ rule_diags

let lint_files ?jobs files =
  List.concat (Rd_util.Pool.parallel_map ?jobs (fun (f, text) -> lint_config ~file:f text) files)

(* ------------------------------------------------------ design rules --- *)

(* Each §8.1 check returns its findings in discovery order; [design]
   concatenates them and lists Warnings before Infos. *)

let design_finding ?file ?line severity code fmt =
  Printf.ksprintf (fun message -> Diag.make ?file ?line severity ~code:("lint-" ^ code) message) fmt

let router_file (t : Analysis.t) ri = fst t.topo.routers.(ri)

let unfiltered_peerings ~locators (t : Analysis.t) =
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
          design_finding ~file
            ?line:(Locator.find locators file (fun loc -> Locator.neighbor_line loc n.peer))
            Diag.Warning "unfiltered-peering"
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
            design_finding ~file
              ?line:(Locator.find locators file (fun loc -> Locator.interface_address_line loc i.name))
              Diag.Warning "unfiltered-edge-interface"
              "external-facing interface %s carries no packet filter" i.name
            :: !acc
        | _ -> ()
      end)
    t.topo.ifaces;
  List.rev !acc

let incomplete_adjacencies ~locators (t : Analysis.t) =
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
                design_finding ~file
                  ?line:
                    (Locator.find locators file (fun loc ->
                         Locator.interface_address_line loc lonely.name))
                  Diag.Warning "half-covered-link"
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
            design_finding ~file:(router_file t p.router) Diag.Info "isolated-process"
              "%s process %s has no adjacency (single-router instance)"
              (Ast.protocol_to_string p.protocol)
              (match p.proc_id with Some i -> string_of_int i | None -> "-")
            :: !acc)
      t.catalog.processes
  end;
  List.rev !acc

let duplicate_addresses ~locators (t : Analysis.t) =
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
            design_finding ~file
              ?line:(Locator.find locators file (fun loc -> Locator.interface_address_line loc i.name))
              Diag.Warning "duplicate-address" "address %s on %s is also configured on %s:%s"
              (Ipv4.to_string a) i.name (router_file t r0) n0
            :: !acc
        | Some _ -> ()
        | None -> Hashtbl.replace seen key (i.router, i.name))
      | None -> ())
    t.topo.ifaces;
  List.rev !acc

let unresolved_static_next_hops (t : Analysis.t) =
  List.concat_map
    (fun (file, (cfg : Ast.t)) ->
      let connected = List.concat_map Ast.interface_prefixes cfg.interfaces in
      List.filter_map
        (fun (s : Ast.static_route) ->
          let dest = Prefix.to_string s.sr_dest in
          match s.sr_next_hop with
          | Ast.Nh_addr nh when not (List.exists (Prefix.mem nh) connected) ->
            Some
              (design_finding ~file Diag.Warning "unresolved-next-hop"
                 "static route to %s points at %s, which is on no connected subnet" dest
                 (Ipv4.to_string nh))
          | Ast.Nh_iface ifname when Ast.find_interface cfg ifname = None ->
            Some
              (design_finding ~file Diag.Warning "unresolved-next-hop"
                 "static route to %s uses undefined interface %s" dest ifname)
          | _ -> None)
        cfg.statics)
    t.configs

let shared_static_destinations (t : Analysis.t) =
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
        design_finding Diag.Info "shared-static-destination"
          "%d routers (%s) hold static routes to %s — avoid maintaining them simultaneously"
          (List.length routers)
          (String.concat ", " (List.sort compare routers))
          (Prefix.to_string dest)
        :: acc
      else acc)
    dests []

let ospf_area_issues (t : Analysis.t) =
  let acc = ref [] in
  List.iter
    (fun (info : Rd_routing.Areas.t) ->
      if List.length info.areas >= 2 && not info.has_backbone then
        acc :=
          design_finding Diag.Warning "ospf-no-backbone-area"
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
                  design_finding ~file:(router_file t abr) Diag.Info "single-abr-area"
                    "OSPF area %d hangs off a single area border router" a.area
                  :: !acc
              | _ -> ())
          info.areas)
    (Rd_routing.Areas.analyze t.catalog t.graph.assignment);
  List.rev !acc

let design ?files (t : Analysis.t) =
  let locators = Locator.of_files ?files () in
  let all =
    unfiltered_peerings ~locators t @ incomplete_adjacencies ~locators t
    @ duplicate_addresses ~locators t @ unresolved_static_next_hops t
    @ shared_static_destinations t @ ospf_area_issues t
  in
  let warnings, infos = List.partition (fun (d : Diag.t) -> d.severity = Diag.Warning) all in
  warnings @ infos

let render = Diag.render

let to_json = Diag.to_json
