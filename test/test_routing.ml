(* Tests for rd_routing: process catalog, adjacency, process graph,
   instances, instance graph, pathways — exercised on hand-built
   networks with known ground truth. *)

open Rd_addr
open Rd_config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Rd_config.Parser.parse

(* A 4-router network:
     e1 --- e2(border) === b1 --- b2
   e1,e2: OSPF 10 enterprise; border runs BGP 65001, redistributes.
   b1,b2: OSPF 99 backbone + IBGP AS 200; b1 peers e2 via EBGP.
   b2 also peers an absent external router (AS 7018). *)
let quad =
  [
    ( "e1",
      cfg
        {|interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
!
interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
router ospf 10
 network 10.0.0.0 0.0.0.3 area 0
 network 10.1.0.0 0.0.0.255 area 0
|} );
    ( "e2",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
interface Serial0/1
 ip address 192.0.2.1 255.255.255.252
!
router ospf 20
 network 10.0.0.0 0.0.0.3 area 0
 redistribute bgp 65001 subnets
!
router bgp 65001
 neighbor 192.0.2.2 remote-as 200
 redistribute ospf 20
|} );
    ( "b1",
      cfg
        {|interface Serial0/0
 ip address 192.0.2.2 255.255.255.252
!
interface POS0/0
 ip address 172.20.0.1 255.255.255.252
!
router ospf 99
 network 172.20.0.0 0.0.0.3 area 0
!
router bgp 200
 neighbor 192.0.2.1 remote-as 65001
 neighbor 172.20.0.2 remote-as 200
|} );
    ( "b2",
      cfg
        {|interface POS0/0
 ip address 172.20.0.2 255.255.255.252
!
interface Serial0/0
 ip address 198.51.100.1 255.255.255.252
!
router ospf 99
 network 172.20.0.0 0.0.0.3 area 0
!
router bgp 200
 neighbor 172.20.0.1 remote-as 200
 neighbor 198.51.100.2 remote-as 7018
|} );
  ]

let build () =
  let topo = Rd_topo.Topology.build quad in
  let catalog = Rd_routing.Process.build topo in
  (topo, catalog)

(* -------------------------------------------------------------- process --- *)

let test_catalog () =
  let _, catalog = build () in
  check_int "process count" 7 (Array.length catalog.processes);
  check_int "e2 has two" 2 (List.length catalog.by_router.(1));
  let p = catalog.processes.(0) in
  check_bool "first is e1 ospf" true (p.protocol = Ast.Ospf && p.router = 0)

let test_covers () =
  let _, catalog = build () in
  let e1_ospf = catalog.processes.(0) in
  check_bool "covers lan" true (Rd_routing.Process.covers e1_ospf (Ipv4.of_string_exn "10.1.0.1"));
  check_bool "covers link" true (Rd_routing.Process.covers e1_ospf (Ipv4.of_string_exn "10.0.0.1"));
  check_bool "not outside" false (Rd_routing.Process.covers e1_ospf (Ipv4.of_string_exn "172.20.0.1"));
  check_bool "area" true (Rd_routing.Process.area_on e1_ospf (Ipv4.of_string_exn "10.1.0.1") = Some 0)

let test_find_by_peer () =
  let _, catalog = build () in
  (match Rd_routing.Process.find_by_peer_addr catalog (Ipv4.of_string_exn "192.0.2.2") with
   | Some p -> check_bool "b1 bgp" true (p.router = 2 && p.protocol = Ast.Bgp)
   | None -> Alcotest.fail "peer not found");
  check_bool "absent peer" true
    (Rd_routing.Process.find_by_peer_addr catalog (Ipv4.of_string_exn "198.51.100.2") = None)

(* ------------------------------------------------------------ adjacency --- *)

let test_adjacency () =
  let _, catalog = build () in
  let adj = Rd_routing.Adjacency.compute catalog in
  let igp =
    List.filter (fun (a : Rd_routing.Adjacency.t) -> match a.kind with Rd_routing.Adjacency.Igp _ -> true | _ -> false) adj.adjacencies
  in
  let ibgp = List.filter (fun (a : Rd_routing.Adjacency.t) -> a.kind = Rd_routing.Adjacency.Ibgp) adj.adjacencies in
  let ebgp = List.filter (fun (a : Rd_routing.Adjacency.t) -> a.kind = Rd_routing.Adjacency.Ebgp) adj.adjacencies in
  check_int "igp adjacencies" 2 (List.length igp);
  check_int "ibgp sessions" 1 (List.length ibgp);
  check_int "internal ebgp" 1 (List.length ebgp);
  check_int "external peerings" 1 (List.length adj.external_peerings);
  let ep = List.hd adj.external_peerings in
  check_int "external asn" 7018 ep.remote_asn

let test_adjacency_ospf_process_ids_ignored () =
  (* e1 runs ospf 10, e2 runs ospf 20 — they are still adjacent because
     process ids have no network-wide meaning (§3.2) *)
  let _, catalog = build () in
  let adj = Rd_routing.Adjacency.compute catalog in
  let assignment = Rd_routing.Instance.compute catalog adj in
  let inst_of pid = assignment.of_process.(pid) in
  (* e1's ospf is pid 0; e2's ospf is pid 1 *)
  check_int "same instance despite ids" (inst_of 0) (inst_of 1)

let test_adjacency_ospf_area_mismatch () =
  let mismatched =
    [
      ( "x",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
|} );
      ( "y",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 5
|} );
    ]
  in
  let catalog = Rd_routing.Process.build (Rd_topo.Topology.build mismatched) in
  let adj = Rd_routing.Adjacency.compute catalog in
  check_int "no adjacency across areas" 0 (List.length adj.adjacencies)

let test_adjacency_eigrp_asn_must_match () =
  let build_pair a b =
    let x = cfg (Printf.sprintf {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
router eigrp %d
 network 10.0.0.0 0.0.0.3
|} a) in
    let y = cfg (Printf.sprintf {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router eigrp %d
 network 10.0.0.0 0.0.0.3
|} b) in
    Rd_routing.Adjacency.compute (Rd_routing.Process.build (Rd_topo.Topology.build [ ("x", x); ("y", y) ]))
  in
  check_int "same asn adjacent" 1 (List.length (build_pair 7 7).adjacencies);
  check_int "different asn not" 0 (List.length (build_pair 7 8).adjacencies)

let test_passive_interface_blocks_adjacency () =
  let mk passive =
    [
      ( "x",
        cfg
          (Printf.sprintf
             {|interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
!
router ospf 1
 network 10.5.0.0 0.0.0.255 area 0
%s|}
             (if passive then " passive-interface Ethernet0\n" else "")) );
      ( "y",
        cfg
          {|interface Ethernet0
 ip address 10.5.0.2 255.255.255.0
!
router ospf 1
 network 10.5.0.0 0.0.0.255 area 0
|} );
    ]
  in
  let adjacencies passive =
    (Rd_routing.Adjacency.compute
       (Rd_routing.Process.build (Rd_topo.Topology.build (mk passive))))
      .adjacencies
  in
  check_int "active forms adjacency" 1 (List.length (adjacencies false));
  check_int "passive does not" 0 (List.length (adjacencies true))

let test_igp_external_edges () =
  (* an OSPF process covering an unmatched /30 speaks to the outside *)
  let routers =
    [
      ( "edge",
        cfg
          {|interface Serial0/0
 ip address 192.0.2.1 255.255.255.252
!
router ospf 1
 network 192.0.2.0 0.0.0.3 area 0
|} );
    ]
  in
  let catalog = Rd_routing.Process.build (Rd_topo.Topology.build routers) in
  let adj = Rd_routing.Adjacency.compute catalog in
  check_int "igp external edge" 1 (List.length adj.igp_external_edges)

(* ------------------------------------------------------------- instance --- *)

let test_instances () =
  let _, catalog = build () in
  let adj = Rd_routing.Adjacency.compute catalog in
  let assignment = Rd_routing.Instance.compute catalog adj in
  (* expected: enterprise OSPF (e1+e2), backbone OSPF (b1+b2), BGP 65001
     (e2), BGP 200 (b1+b2) = 4 instances *)
  check_int "instance count" 4 (Array.length assignment.instances);
  let by_asn asn =
    Array.to_list assignment.instances
    |> List.find (fun (i : Rd_routing.Instance.t) -> i.asn = Some asn)
  in
  check_int "ibgp spans" 2 (Rd_routing.Instance.size (by_asn 200));
  check_int "enterprise bgp" 1 (Rd_routing.Instance.size (by_asn 65001));
  (* every process is assigned *)
  Array.iteri
    (fun pid inst -> check_bool (Printf.sprintf "pid %d assigned" pid) true (inst >= 0))
    assignment.of_process

let test_instances_partition_property () =
  let _, catalog = build () in
  let adj = Rd_routing.Adjacency.compute catalog in
  let assignment = Rd_routing.Instance.compute catalog adj in
  (* instances partition the processes *)
  let total =
    Array.fold_left
      (fun acc (i : Rd_routing.Instance.t) -> acc + List.length i.members)
      0 assignment.instances
  in
  check_int "partition covers all" (Array.length catalog.processes) total;
  (* all members of an instance speak the same protocol *)
  Array.iter
    (fun (i : Rd_routing.Instance.t) ->
      List.iter
        (fun pid ->
          check_bool "protocol uniform" true (catalog.processes.(pid).protocol = i.protocol))
        i.members)
    assignment.instances

let test_instance_by_process_id_differs () =
  let _, catalog = build () in
  let by_id = Rd_routing.Instance.compute_by_process_id catalog in
  (* process-id grouping: ospf 10, ospf 20, ospf 99(x2 merged), bgp 65001,
     bgp 200(x2 merged) = 5 groups; flood fill gives 4 *)
  check_int "by-id groups" 5 (Array.length by_id.instances)

(* -------------------------------------------------------- process graph --- *)

let test_process_graph () =
  let _, catalog = build () in
  let g = Rd_routing.Process_graph.build catalog in
  (* vertices: 7 processes + 4 locals + 4 router RIBs *)
  check_int "vertices" 15 (List.length (Rd_routing.Process_graph.vertices g));
  let redists = Rd_routing.Process_graph.redistribution_edges g in
  check_int "redistribution edges" 2 (List.length redists);
  (* selection edges: one per process + one per local = 11 *)
  let sel =
    List.filter
      (fun (e : Rd_routing.Process_graph.edge) -> e.kind = Rd_routing.Process_graph.Selection)
      g.edges
  in
  check_int "selection edges" 11 (List.length sel);
  (* dot export sanity *)
  check_bool "dot" true (String.length (Rd_routing.Process_graph.to_dot g) > 100)

(* ------------------------------------------------------- instance graph --- *)

let test_instance_graph () =
  let _, catalog = build () in
  let g = Rd_routing.Instance_graph.build catalog in
  check_int "instances" 4 (Array.length (Rd_routing.Instance_graph.instances g));
  Alcotest.(check (list int)) "external asns" [ 7018 ] (Rd_routing.Instance_graph.external_asns g);
  (* redistribution edges between enterprise OSPF and BGP 65001 both ways *)
  let inst_of_asn asn =
    Array.to_list g.assignment.instances
    |> List.find (fun (i : Rd_routing.Instance.t) -> i.asn = Some asn)
  in
  let bgp65001 = (inst_of_asn 65001).inst_id in
  let e_ospf =
    (Array.to_list g.assignment.instances
    |> List.find (fun (i : Rd_routing.Instance.t) ->
         i.protocol = Ast.Ospf && List.mem 1 i.routers))
      .inst_id
  in
  let edges_between src dst =
    List.filter (fun (e : Rd_routing.Instance_graph.edge) -> e.src = src && e.dst = dst) g.edges
  in
  check_int "ospf->bgp edge" 1 (List.length (edges_between (Inst e_ospf) (Inst bgp65001)));
  check_int "bgp->ospf edge" 1 (List.length (edges_between (Inst bgp65001) (Inst e_ospf)));
  let redist_routers =
    List.filter_map
      (fun (e : Rd_routing.Instance_graph.edge) ->
        match e.via with Redist { router; _ } -> Some router | _ -> None)
      (edges_between (Inst bgp65001) (Inst e_ospf))
  in
  check_int "redist routers" 1 (List.length (List.sort_uniq Int.compare redist_routers));
  (* internal EBGP edges between 65001 and 200 in both directions *)
  let bgp200 = (inst_of_asn 200).inst_id in
  check_int "ebgp edges" 1 (List.length (edges_between (Inst bgp65001) (Inst bgp200)));
  check_bool "dot" true (String.length (Rd_routing.Instance_graph.to_dot g) > 100)

let test_ibgp_mesh_completeness () =
  let _, catalog = build () in
  let g = Rd_routing.Instance_graph.build catalog in
  let inst_of_asn asn =
    Array.to_list g.assignment.instances
    |> List.find (fun (i : Rd_routing.Instance.t) -> i.asn = Some asn)
  in
  (* BGP 200 spans b1 and b2 with one session between them: full mesh *)
  (match Rd_routing.Instance_graph.ibgp_mesh_completeness g (inst_of_asn 200).inst_id with
   | Some c -> check_bool "full mesh" true (abs_float (c -. 1.0) < 1e-9)
   | None -> Alcotest.fail "expected completeness");
  (* single-router BGP instance: undefined *)
  check_bool "single router undefined" true
    (Rd_routing.Instance_graph.ibgp_mesh_completeness g (inst_of_asn 65001).inst_id = None);
  (* non-BGP instance: undefined *)
  let ospf =
    Array.to_list g.assignment.instances
    |> List.find (fun (i : Rd_routing.Instance.t) -> i.protocol = Ast.Ospf)
  in
  check_bool "igp undefined" true
    (Rd_routing.Instance_graph.ibgp_mesh_completeness g ospf.inst_id = None)

let test_instance_of_router () =
  let _, catalog = build () in
  let g = Rd_routing.Instance_graph.build catalog in
  check_int "e2 in two instances" 2 (List.length (Rd_routing.Instance_graph.instance_of_router g 1));
  check_int "e1 in one" 1 (List.length (Rd_routing.Instance_graph.instance_of_router g 0))

(* -------------------------------------------------------------- pathway --- *)

let test_pathway_enterprise () =
  let _, catalog = build () in
  let g = Rd_routing.Instance_graph.build catalog in
  let pw = Rd_routing.Pathway.build g ~router:0 (* e1 *) in
  check_bool "reaches external" true pw.reaches_external;
  (* e1 hears from: its OSPF (depth 0), BGP 65001, BGP 200, backbone OSPF?
     backbone OSPF feeds BGP 200 via... no redistribution from backbone
     ospf to bgp, so instances feeding e1 = e-ospf, 65001, 200 *)
  let feeding =
    List.filter (function Rd_routing.Instance_graph.Inst _, _ -> true | _ -> false) pw.depth_of
  in
  check_int "instances feeding" 3 (List.length feeding);
  check_bool "render mentions rib" true
    (let s = Rd_routing.Pathway.render g pw in
     String.length s > 0);
  check_bool "edges on path nonempty" true (pw.edges <> [])

let test_pathway_depths () =
  let _, catalog = build () in
  let g = Rd_routing.Instance_graph.build catalog in
  let pw = Rd_routing.Pathway.build g ~router:0 in
  (* depth 0 must be exactly e1's own instances *)
  let depth0 =
    List.filter_map
      (fun (v, d) -> if d = 0 then Some v else None)
      pw.depth_of
  in
  check_int "one instance at depth 0" 1 (List.length depth0)

(* ------------------------------------------------------------ properties --- *)

let arb_network =
  let archetypes =
    [|
      Rd_gen.Archetype.Backbone; Rd_gen.Archetype.Enterprise; Rd_gen.Archetype.Compartment;
      Rd_gen.Archetype.Tier2; Rd_gen.Archetype.Hub_spoke; Rd_gen.Archetype.Igp_only;
    |]
  in
  QCheck.make
    ~print:(fun (arch, seed, n) ->
      Printf.sprintf "%s seed=%d n=%d" (Rd_gen.Archetype.to_string archetypes.(arch)) seed n)
    QCheck.Gen.(
      let* arch = int_bound (Array.length archetypes - 1) in
      let* seed = int_bound 1000 in
      let* n = int_range 6 24 in
      return (arch, seed, n))

let build_random (arch, seed, n) =
  let archetypes =
    [|
      Rd_gen.Archetype.Backbone; Rd_gen.Archetype.Enterprise; Rd_gen.Archetype.Compartment;
      Rd_gen.Archetype.Tier2; Rd_gen.Archetype.Hub_spoke; Rd_gen.Archetype.Igp_only;
    |]
  in
  let net = Rd_gen.Archetype.generate archetypes.(arch) ~seed ~n ~index:(seed mod 11) () in
  let topo = Rd_topo.Topology.build (Rd_gen.Builder.to_configs net) in
  let catalog = Rd_routing.Process.build topo in
  let adj = Rd_routing.Adjacency.compute catalog in
  (catalog, adj, Rd_routing.Instance.compute catalog adj)

let prop_instances_partition =
  QCheck.Test.make ~name:"instances partition processes (random networks)" ~count:25 arb_network
    (fun spec ->
      let catalog, _, assignment = build_random spec in
      let total =
        Array.fold_left
          (fun acc (i : Rd_routing.Instance.t) -> acc + List.length i.members)
          0 assignment.instances
      in
      total = Array.length catalog.processes
      && Array.for_all (fun i -> i >= 0) assignment.of_process)

let prop_adjacency_respects_instances =
  QCheck.Test.make ~name:"IGP/IBGP adjacency stays within instances; EBGP crosses" ~count:25
    arb_network (fun spec ->
      let _, adj, assignment = build_random spec in
      List.for_all
        (fun (a : Rd_routing.Adjacency.t) ->
          let same = assignment.of_process.(a.a) = assignment.of_process.(a.b) in
          match a.kind with
          | Rd_routing.Adjacency.Igp _ | Rd_routing.Adjacency.Ibgp -> same
          | Rd_routing.Adjacency.Ebgp -> not same)
        adj.adjacencies)

let prop_instances_protocol_uniform =
  QCheck.Test.make ~name:"instance members share a protocol" ~count:25 arb_network (fun spec ->
      let catalog, _, assignment = build_random spec in
      Array.for_all
        (fun (i : Rd_routing.Instance.t) ->
          List.for_all (fun pid -> catalog.processes.(pid).Rd_routing.Process.protocol = i.protocol) i.members)
        assignment.instances)

(* ---------------------------------------------------------------- areas --- *)

let multi_area =
  [
    ( "abr",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Serial0/1
 ip address 10.0.1.1 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 10.0.1.0 0.0.0.3 area 5
|} );
    ( "core",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
|} );
    ( "leaf",
      cfg
        {|interface Serial0/0
 ip address 10.0.1.2 255.255.255.252
!
router ospf 1
 network 10.0.1.0 0.0.0.3 area 5
|} );
  ]

let test_areas_census () =
  let topo = Rd_topo.Topology.build multi_area in
  let catalog = Rd_routing.Process.build topo in
  let adj = Rd_routing.Adjacency.compute catalog in
  let assignment = Rd_routing.Instance.compute catalog adj in
  (match Rd_routing.Areas.analyze catalog assignment with
   | [ info ] ->
     check_int "two areas" 2 (List.length info.areas);
     check_bool "backbone present" true info.has_backbone;
     Alcotest.(check (list int)) "abr is router 0" [ 0 ] info.abrs;
     let a5 = List.find (fun (a : Rd_routing.Areas.area_info) -> a.area = 5) info.areas in
     Alcotest.(check (list int)) "area 5 routers" [ 0; 2 ] a5.routers;
     check_bool "render" true (String.length (Rd_routing.Areas.render catalog info) > 0)
   | l -> Alcotest.failf "expected one ospf instance, got %d" (List.length l))

let test_areas_no_backbone () =
  (* two areas, neither is 0 *)
  let routers =
    [
      ( "x",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Serial0/1
 ip address 10.0.1.1 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 3
 network 10.0.1.0 0.0.0.3 area 5
|} );
      ( "y",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 3
|} );
    ]
  in
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  let assignment = Rd_routing.Instance.compute catalog (Rd_routing.Adjacency.compute catalog) in
  let infos = Rd_routing.Areas.analyze catalog assignment in
  let flagged =
    List.filter
      (fun (t : Rd_routing.Areas.t) -> List.length t.areas >= 2 && not t.has_backbone)
      infos
  in
  check_int "flagged" 1 (List.length flagged)

let () =
  Alcotest.run "rd_routing"
    [
      ( "process",
        [
          Alcotest.test_case "catalog" `Quick test_catalog;
          Alcotest.test_case "network coverage" `Quick test_covers;
          Alcotest.test_case "peer resolution" `Quick test_find_by_peer;
        ] );
      ( "adjacency",
        [
          Alcotest.test_case "kinds and counts" `Quick test_adjacency;
          Alcotest.test_case "ospf ids ignored" `Quick test_adjacency_ospf_process_ids_ignored;
          Alcotest.test_case "ospf area mismatch blocks" `Quick test_adjacency_ospf_area_mismatch;
          Alcotest.test_case "eigrp asn must match" `Quick test_adjacency_eigrp_asn_must_match;
          Alcotest.test_case "passive interface" `Quick test_passive_interface_blocks_adjacency;
          Alcotest.test_case "igp external edges" `Quick test_igp_external_edges;
        ] );
      ( "instance",
        [
          Alcotest.test_case "flood fill census" `Quick test_instances;
          Alcotest.test_case "partition property" `Quick test_instances_partition_property;
          Alcotest.test_case "process-id grouping differs" `Quick test_instance_by_process_id_differs;
        ] );
      ("process_graph", [ Alcotest.test_case "structure" `Quick test_process_graph ]);
      ( "instance_graph",
        [
          Alcotest.test_case "edges and externals" `Quick test_instance_graph;
          Alcotest.test_case "instances of router" `Quick test_instance_of_router;
          Alcotest.test_case "ibgp mesh completeness" `Quick test_ibgp_mesh_completeness;
        ] );
      ( "pathway",
        [
          Alcotest.test_case "enterprise pathway" `Quick test_pathway_enterprise;
          Alcotest.test_case "depths" `Quick test_pathway_depths;
        ] );
      ( "areas",
        [
          Alcotest.test_case "census and ABRs" `Quick test_areas_census;
          Alcotest.test_case "missing backbone area" `Quick test_areas_no_backbone;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_instances_partition;
            prop_adjacency_respects_instances;
            prop_instances_protocol_uniform;
          ] );
    ]
