(* Tests for rd_sim: RIBs with administrative distance, route propagation,
   failure analysis. *)

open Rd_addr
open Rd_config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let route ?(metric = 0) ?tag dest source = { (Rd_sim.Rib.mk (pfx dest) source) with metric; tag }

(* ------------------------------------------------------------------ rib --- *)

let test_admin_distance_order () =
  let open Rd_sim.Rib in
  let distances =
    [
      admin_distance Connected;
      admin_distance Static;
      admin_distance (Proto (Ast.Bgp, `External));
      admin_distance (Proto (Ast.Eigrp, `Internal));
      admin_distance (Proto (Ast.Igrp, `Internal));
      admin_distance (Proto (Ast.Ospf, `Internal));
      admin_distance (Proto (Ast.Isis, `Internal));
      admin_distance (Proto (Ast.Rip, `Internal));
      admin_distance (Proto (Ast.Eigrp, `External));
      admin_distance (Proto (Ast.Bgp, `Internal));
    ]
  in
  (* strictly increasing = Cisco's preference order *)
  check_bool "order" true (List.sort compare distances = distances);
  check_int "connected" 0 (admin_distance Connected);
  check_int "ibgp" 200 (admin_distance (Proto (Ast.Bgp, `Internal)))

let test_rib_selection () =
  let open Rd_sim.Rib in
  let rib = empty in
  let rib = add rib (route "10.0.0.0/8" (Proto (Ast.Ospf, `Internal))) in
  let rib = add rib (route "10.0.0.0/8" Connected) in
  (match find rib (pfx "10.0.0.0/8") with
   | Some r -> check_bool "connected wins" true (r.source = Connected)
   | None -> Alcotest.fail "route lost");
  (* worse routes do not replace *)
  let rib = add rib (route "10.0.0.0/8" (Proto (Ast.Rip, `Internal))) in
  (match find rib (pfx "10.0.0.0/8") with
   | Some r -> check_bool "still connected" true (r.source = Connected)
   | None -> Alcotest.fail "route lost");
  check_int "size" 1 (size rib)

let test_rib_metric_tiebreak () =
  let open Rd_sim.Rib in
  let rib = add empty (route ~metric:20 "10.0.0.0/8" (Proto (Ast.Ospf, `Internal))) in
  let rib = add rib (route ~metric:10 "10.0.0.0/8" (Proto (Ast.Ospf, `Internal))) in
  match find rib (pfx "10.0.0.0/8") with
  | Some r -> check_int "lower metric wins" 10 r.metric
  | None -> Alcotest.fail "route lost"

let test_rib_lookup_lpm () =
  let open Rd_sim.Rib in
  let rib = add empty (route "10.0.0.0/8" Static) in
  let rib = add rib (route "10.1.0.0/16" Connected) in
  (match lookup rib (ip "10.1.2.3") with
   | Some r -> check_bool "lpm" true (Prefix.to_string r.dest = "10.1.0.0/16")
   | None -> Alcotest.fail "lookup failed");
  (match lookup rib (ip "10.9.9.9") with
   | Some r -> check_bool "fallback" true (Prefix.to_string r.dest = "10.0.0.0/8")
   | None -> Alcotest.fail "lookup failed");
  check_bool "miss" true (lookup rib (ip "11.0.0.0") = None)

let test_rib_floating_static () =
  let open Rd_sim.Rib in
  (* a floating static (AD 250) loses to OSPF; a normal static wins *)
  let rib = add empty (mk ~ad_override:250 (pfx "10.0.0.0/8") Static) in
  let rib = add rib (route "10.0.0.0/8" (Proto (Ast.Ospf, `Internal))) in
  (match find rib (pfx "10.0.0.0/8") with
   | Some r -> check_bool "ospf beats floating static" true (r.source = Proto (Ast.Ospf, `Internal))
   | None -> Alcotest.fail "route lost");
  let rib2 = add empty (route "10.0.0.0/8" (Proto (Ast.Ospf, `Internal))) in
  let rib2 = add rib2 (route "10.0.0.0/8" Static) in
  match find rib2 (pfx "10.0.0.0/8") with
  | Some r -> check_bool "normal static wins" true (r.source = Static)
  | None -> Alcotest.fail "route lost"

let test_rib_as_path_tiebreak () =
  let open Rd_sim.Rib in
  let rib = add empty (mk ~as_path:[ 1; 2; 3 ] (pfx "10.0.0.0/8") (Proto (Ast.Bgp, `External))) in
  let rib = add rib (mk ~as_path:[ 9 ] (pfx "10.0.0.0/8") (Proto (Ast.Bgp, `External))) in
  match find rib (pfx "10.0.0.0/8") with
  | Some r -> Alcotest.(check (list int)) "shorter path wins" [ 9 ] r.as_path
  | None -> Alcotest.fail "route lost"

let test_rib_merge () =
  let open Rd_sim.Rib in
  let a = add empty (route "10.0.0.0/8" (Proto (Ast.Rip, `Internal))) in
  let b = add empty (route "10.0.0.0/8" Connected) in
  let m = merge a b in
  (match find m (pfx "10.0.0.0/8") with
   | Some r -> check_bool "best kept" true (r.source = Connected)
   | None -> Alcotest.fail "merge lost");
  check_bool "prefixes" true (Prefix_set.mem (ip "10.5.5.5") (prefixes m))

let test_rib_lookup_bounds () =
  let open Rd_sim.Rib in
  let rib = add empty (route "0.0.0.0/0" Static) in
  let rib = add rib (route "10.1.2.3/32" Connected) in
  let dest a = Option.map (fun r -> Prefix.to_string r.dest) (lookup rib (ip a)) in
  Alcotest.(check (option string)) "host route" (Some "10.1.2.3/32") (dest "10.1.2.3");
  Alcotest.(check (option string)) "default" (Some "0.0.0.0/0") (dest "10.1.2.4");
  check_bool "empty" true (lookup empty (ip "10.1.2.3") = None)

let test_rib_of_routes_rejects () =
  let open Rd_sim.Rib in
  let raises l = match of_routes l with _ -> false | exception Invalid_argument _ -> true in
  let r8 = route "10.0.0.0/8" Static and r16 = route "10.1.0.0/16" Static in
  check_bool "out of order" true (raises [ r16; r8 ]);
  check_bool "duplicate" true (raises [ r8; route "10.0.0.0/8" Connected ]);
  check_bool "sorted" false (raises [ r8; r16 ]);
  check_int "empty" 0 (size (of_routes []))

(* Routes drawn from a few nested prefixes of 10.0.0.0/14, lengths 0 to
   32, with sources and metrics that often tie under [better]; the tag
   numbers each route, so a tie shows which one a RIB kept. *)
let arb_routes =
  let open QCheck.Gen in
  let sources =
    Rd_sim.Rib.
      [ Connected; Static; Proto (Ast.Ospf, `Internal); Proto (Ast.Rip, `Internal);
        Proto (Ast.Bgp, `External) ]
  in
  let gen_route =
    let* third = int_bound 3 and* fourth = int_bound 3 in
    let* len = frequency [ (4, int_bound 32); (1, return 0); (1, return 32) ] in
    let* source = oneofl sources and* metric = int_bound 2 and* hops = int_bound 2 in
    let dest = Prefix.make (Ipv4.of_octets 10 third 0 fourth) len in
    return { (Rd_sim.Rib.mk ~as_path:(List.init hops Fun.id) dest source) with metric }
  in
  QCheck.make
    ~print:(fun rs ->
      String.concat "; " (List.map (fun (r : Rd_sim.Rib.route) -> Prefix.to_string r.dest) rs))
    (map
       (List.mapi (fun i (r : Rd_sim.Rib.route) -> { r with tag = Some i }))
       (list_size (int_bound 24) gen_route))

(* The list model: one route per destination, replaced only by a
   strictly better one. *)
let model_add model (r : Rd_sim.Rib.route) =
  match List.partition (fun (e : Rd_sim.Rib.route) -> Prefix.equal e.dest r.dest) model with
  | [ e ], rest -> if Rd_sim.Rib.better r e then r :: rest else model
  | _, rest -> r :: rest

let rib_of = List.fold_left Rd_sim.Rib.add Rd_sim.Rib.empty

let prop_rib_model =
  QCheck.Test.make ~name:"rib = list model" ~count:300 arb_routes (fun rs ->
      let open Rd_sim.Rib in
      let t = rib_of rs in
      let model = List.fold_left model_add [] rs in
      let by_dest (a : route) (b : route) = Prefix.compare a.dest b.dest in
      let rec increasing = function
        | a :: (b :: _ as rest) -> by_dest a b < 0 && increasing rest
        | _ -> true
      in
      let probes = List.map (fun (r : route) -> r.dest) rs @ [ Prefix.default ] in
      let model_lookup a =
        List.fold_left
          (fun best (r : route) ->
            if not (Prefix.mem a r.dest) then best
            else
              match best with
              | Some (b : route) when Prefix.len b.dest >= Prefix.len r.dest -> best
              | _ -> Some r)
          None model
      in
      routes t = List.sort by_dest model
      && increasing (routes t)
      && size t = List.length model
      && routes (of_routes (routes t)) = routes t
      && List.for_all
           (fun p ->
             find t p = List.find_opt (fun (r : route) -> Prefix.equal r.dest p) model
             && List.for_all
                  (fun a -> lookup t a = model_lookup a)
                  [ Prefix.network p; Prefix.broadcast p; Ipv4.succ (Prefix.broadcast p) ])
           probes)

let prop_rib_merge =
  QCheck.Test.make ~name:"merge = fold of add" ~count:300 (QCheck.pair arb_routes arb_routes)
    (fun (ra, rb) ->
      let open Rd_sim.Rib in
      let a = rib_of ra and b = rib_of rb in
      routes (merge a b) = routes (List.fold_left add a (routes b)))

(* ------------------------------------------------------------ propagate --- *)

let cfg = Rd_config.Parser.parse

let small_net =
  [
    ( "r1",
      cfg
        {|interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
!
interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 10.1.0.0 0.0.0.255 area 0
|} );
    ( "r2",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
interface Ethernet0
 ip address 10.2.0.1 255.255.255.0
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 10.2.0.0 0.0.0.255 area 0
|} );
  ]

let run routers =
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  let graph = Rd_routing.Process_graph.build catalog in
  Rd_sim.Propagate.run graph

let test_propagate_igp () =
  let sim = run small_net in
  (* r1's OSPF learned r2's LAN *)
  let rib = Rd_sim.Propagate.rib_of_process sim 0 in
  check_bool "learned remote lan" true (Rd_sim.Rib.find rib (pfx "10.2.0.0/24") <> None);
  check_bool "has own" true (Rd_sim.Rib.find rib (pfx "10.1.0.0/24") <> None);
  (* the router RIB can forward to the other side *)
  (match Rd_sim.Propagate.forwards_to sim ~router:0 (ip "10.2.0.55") with
   | Some r -> check_bool "forwarding" true (Prefix.to_string r.dest = "10.2.0.0/24")
   | None -> Alcotest.fail "no route");
  check_bool "converged" true (sim.iterations <= 5)

let test_propagate_cancel_degrades () =
  (* a tripped token stops the round loop at its next poll: the sim
     comes back with [converged = false], no exception escapes *)
  let tok = Rd_util.Cancel.create () in
  Rd_util.Cancel.cancel ~reason:"SIGINT" tok;
  let topo = Rd_topo.Topology.build small_net in
  let catalog = Rd_routing.Process.build topo in
  let graph = Rd_routing.Process_graph.build catalog in
  let sim = Rd_sim.Propagate.run ~cancel:tok graph in
  check_bool "degrades to non-convergence" true (not sim.converged);
  (* an expiring deadline mid-run does the same *)
  let tok2 = Rd_util.Cancel.create ~deadline:0.0 () in
  let sim2 = Rd_sim.Propagate.run ~cancel:tok2 graph in
  check_bool "deadline degrades too" true (not sim2.converged);
  (* and a live token changes nothing *)
  let live = Rd_util.Cancel.create () in
  let sim3 = Rd_sim.Propagate.run ~cancel:(Rd_util.Cancel.child live) graph in
  check_bool "live token converges" true sim3.converged

let test_propagate_connected_preferred () =
  let sim = run small_net in
  (* in r1's router RIB, 10.1.0.0/24 must be connected, not OSPF *)
  match Rd_sim.Rib.find (Rd_sim.Propagate.rib_of_router sim 0) (pfx "10.1.0.0/24") with
  | Some r -> check_bool "connected wins" true (r.source = Rd_sim.Rib.Connected)
  | None -> Alcotest.fail "no route"

let test_propagate_external_injection () =
  let routers =
    [
      ( "edge",
        cfg
          {|interface Serial0/0
 ip address 192.0.2.1 255.255.255.252
!
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
!
router ospf 1
 network 10.0.0.0 0.0.0.255 area 0
 redistribute bgp 65000 metric 50 subnets
!
router bgp 65000
 neighbor 192.0.2.2 remote-as 7018
|} );
    ]
  in
  let sim =
    let topo = Rd_topo.Topology.build routers in
    let catalog = Rd_routing.Process.build topo in
    Rd_sim.Propagate.run ~external_prefixes:[ pfx "198.18.0.0/16"; pfx "0.0.0.0/0" ]
      (Rd_routing.Process_graph.build catalog)
  in
  (* BGP RIB holds externals; OSPF received them via redistribution with
     the configured metric *)
  let ospf_rib = Rd_sim.Propagate.rib_of_process sim 0 in
  (match Rd_sim.Rib.find ospf_rib (pfx "198.18.0.0/16") with
   | Some r ->
     check_int "metric applied" 50 r.metric;
     check_bool "marked external" true (r.source = Rd_sim.Rib.Proto (Ast.Ospf, `External))
   | None -> Alcotest.fail "external not redistributed");
  (* default route present in the router RIB *)
  check_bool "default" true
    (Rd_sim.Propagate.forwards_to sim ~router:0 (ip "8.8.8.8") <> None)

let test_propagate_loads () =
  let sim = run small_net in
  let loads = Rd_sim.Propagate.process_loads sim in
  check_int "two processes" 2 (List.length loads);
  List.iter (fun (_, sz) -> check_bool "nonzero" true (sz > 0)) loads

let test_instance_load_no_members () =
  (* an instance id owning no process must yield (0, 0.) — not a NaN mean
     from a 0/0 division *)
  let sim = run small_net in
  let topo = Rd_topo.Topology.build small_net in
  let catalog = Rd_routing.Process.build topo in
  let assignment = (Rd_routing.Instance_graph.build catalog).assignment in
  let phantom = Array.length assignment.instances in
  let max_sz, mean = Rd_sim.Propagate.instance_load sim assignment phantom in
  check_int "max" 0 max_sz;
  check_bool "mean is exactly zero" true (mean = 0.0);
  check_bool "mean is not NaN" false (Float.is_nan mean);
  (* a real instance still reports its load *)
  let real_max, real_mean = Rd_sim.Propagate.instance_load sim assignment 0 in
  check_bool "real instance nonzero" true (real_max > 0 && real_mean > 0.)

(* ---------------------------------------------------- bgp semantics ----- *)

(* Three routers in AS 100 chained by IBGP sessions a--b--c (no mesh, no
   route reflection): an external route learned at [a] must reach [b] but
   not [c] — the non-transitivity that forces IBGP meshes (paper §3.1). *)
let ibgp_chain ~reflector =
  let rrc = if reflector then "\n neighbor 10.0.255.3 route-reflector-client\n neighbor 10.0.255.1 route-reflector-client" else "" in
  [
    ( "a",
      cfg
        {|interface Loopback0
 ip address 10.0.255.1 255.255.255.255
!
interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Serial0/1
 ip address 192.0.2.1 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 10.0.255.1 0.0.0.0 area 0
!
router bgp 100
 neighbor 10.0.255.2 remote-as 100
 neighbor 192.0.2.2 remote-as 7018
|} );
    ( "b",
      cfg
        (Printf.sprintf
           {|interface Loopback0
 ip address 10.0.255.2 255.255.255.255
!
interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
interface Serial0/1
 ip address 10.0.0.5 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.7 area 0
 network 10.0.255.2 0.0.0.0 area 0
!
router bgp 100
 neighbor 10.0.255.1 remote-as 100
 neighbor 10.0.255.3 remote-as 100%s
|}
           rrc) );
    ( "c",
      cfg
        {|interface Loopback0
 ip address 10.0.255.3 255.255.255.255
!
interface Serial0/0
 ip address 10.0.0.6 255.255.255.252
!
router ospf 1
 network 10.0.0.4 0.0.0.3 area 0
 network 10.0.255.3 0.0.0.0 area 0
!
router bgp 100
 neighbor 10.0.255.2 remote-as 100
|} );
  ]

let external_pfx = pfx "198.18.0.0/16"

let run_chain ~reflector =
  let topo = Rd_topo.Topology.build (ibgp_chain ~reflector) in
  let catalog = Rd_routing.Process.build topo in
  Rd_sim.Propagate.run ~external_prefixes:[ external_pfx ]
    (Rd_routing.Process_graph.build catalog)

let bgp_pid_of sim name =
  let catalog = (sim : Rd_sim.Propagate.t).graph.catalog in
  let ri = Option.get (Rd_topo.Topology.router_index catalog.topo name) in
  List.find
    (fun pid -> catalog.processes.(pid).Rd_routing.Process.protocol = Ast.Bgp)
    catalog.by_router.(ri)

let test_ibgp_nontransitive () =
  let sim = run_chain ~reflector:false in
  let has name =
    Rd_sim.Rib.find (Rd_sim.Propagate.rib_of_process sim (bgp_pid_of sim name)) external_pfx
    <> None
  in
  check_bool "a holds the external route" true (has "a");
  check_bool "b learns it over IBGP" true (has "b");
  check_bool "c does NOT (no reflection)" false (has "c")

let test_route_reflector () =
  let sim = run_chain ~reflector:true in
  let rib_c = Rd_sim.Propagate.rib_of_process sim (bgp_pid_of sim "c") in
  (match Rd_sim.Rib.find rib_c external_pfx with
   | Some r ->
     check_bool "reflected to c" true true;
     check_bool "marked via ibgp" true r.via_ibgp
   | None -> Alcotest.fail "route reflector failed to reflect");
  ()

let test_ebgp_as_path_and_loop () =
  (* x(AS 65001) -- y(AS 65002): y's copy of x's route carries x's ASN;
     a route already carrying y's ASN is refused *)
  let routers =
    [
      ( "x",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
!
router bgp 65001
 network 10.1.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
|} );
      ( "y",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router bgp 65002
 neighbor 10.0.0.1 remote-as 65001
|} );
    ]
  in
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  let sim =
    Rd_sim.Propagate.run ~external_prefixes:[] (Rd_routing.Process_graph.build catalog)
  in
  let y_pid =
    List.find
      (fun pid -> catalog.processes.(pid).Rd_routing.Process.protocol = Ast.Bgp)
      catalog.by_router.(1)
  in
  match Rd_sim.Rib.find (Rd_sim.Propagate.rib_of_process sim y_pid) (pfx "10.1.0.0/24") with
  | Some r ->
    Alcotest.(check (list int)) "as path records sender" [ 65001 ] r.as_path;
    check_bool "external flavour" true (r.source = Rd_sim.Rib.Proto (Ast.Bgp, `External))
  | None -> Alcotest.fail "route did not cross the EBGP session"

let test_redistribution_strips_attributes () =
  (* external BGP route redistributed into OSPF loses its AS path *)
  let routers =
    [
      ( "edge",
        cfg
          {|interface Serial0/0
 ip address 192.0.2.1 255.255.255.252
!
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
!
router ospf 1
 network 10.0.0.0 0.0.0.255 area 0
 redistribute bgp 65000 subnets
!
router bgp 65000
 neighbor 192.0.2.2 remote-as 7018
|} );
    ]
  in
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  let sim =
    Rd_sim.Propagate.run ~external_prefixes:[ external_pfx ]
      (Rd_routing.Process_graph.build catalog)
  in
  let ospf_pid =
    List.find
      (fun pid -> catalog.processes.(pid).Rd_routing.Process.protocol = Ast.Ospf)
      catalog.by_router.(0)
  in
  match Rd_sim.Rib.find (Rd_sim.Propagate.rib_of_process sim ospf_pid) external_pfx with
  | Some r -> Alcotest.(check (list int)) "as path stripped" [] r.as_path
  | None -> Alcotest.fail "redistribution failed"

(* -------------------------------------------------------------- failure --- *)

let analyze_graph routers =
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  Rd_routing.Instance_graph.build catalog

(* island A -- glue -- island B as two OSPF instances joined by one router *)
let glued =
  [
    ( "a1",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
|} );
    ( "glue",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
interface Serial0/1
 ip address 10.0.0.5 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 redistribute ospf 2 subnets
!
router ospf 2
 network 10.0.0.4 0.0.0.3 area 0
 redistribute ospf 1 subnets
|} );
    ( "b1",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.6 255.255.255.252
!
router ospf 1
 network 10.0.0.4 0.0.0.3 area 0
|} );
  ]

let test_failure_single_glue () =
  let g = analyze_graph glued in
  check_int "two instances" 2 (Array.length g.assignment.instances);
  (match Rd_sim.Failure.min_router_failures g ~src:0 ~dst:1 with
   | Rd_sim.Failure.Cut (k, cut) ->
     check_int "one failure" 1 k;
     Alcotest.(check (list int)) "the glue router" [ 1 ] cut
   | _ -> Alcotest.fail "expected a cut");
  Alcotest.(check (list int)) "spof" [ 1 ] (Rd_sim.Failure.single_points_of_failure g)

let test_failure_already_partitioned () =
  (* two unconnected OSPF islands *)
  let isolated =
    [
      ( "x",
        cfg
          {|interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
!
router ospf 1
 network 10.1.0.0 0.0.0.255 area 0
|} );
      ( "y",
        cfg
          {|interface Ethernet0
 ip address 10.2.0.1 255.255.255.0
!
router ospf 1
 network 10.2.0.0 0.0.0.255 area 0
|} );
    ]
  in
  let g = analyze_graph isolated in
  check_bool "partitioned" true
    (Rd_sim.Failure.min_router_failures g ~src:0 ~dst:1 = Rd_sim.Failure.Already_partitioned)

let test_default_information_originate () =
  (* the border holds a static default and originates it into OSPF; the
     interior router then has a default route *)
  let routers =
    [
      ( "border",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Serial0/1
 ip address 192.0.2.1 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 default-information originate
!
ip route 0.0.0.0 0.0.0.0 192.0.2.2
|} );
      ( "inner",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
|} );
    ]
  in
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  let sim =
    Rd_sim.Propagate.run ~external_prefixes:[] (Rd_routing.Process_graph.build catalog)
  in
  check_bool "inner has default" true
    (Rd_sim.Propagate.forwards_to sim ~router:1 (ip "8.8.8.8") <> None);
  (* without the knob, no default is originated *)
  let no_knob =
    List.map
      (fun (n, (c : Ast.t)) ->
        ( n,
          {
            c with
            Ast.processes =
              List.map
                (fun (p : Ast.router_process) -> { p with Ast.default_originate = false })
                c.processes;
          } ))
      routers
  in
  let topo2 = Rd_topo.Topology.build no_knob in
  let catalog2 = Rd_routing.Process.build topo2 in
  let sim2 =
    Rd_sim.Propagate.run ~external_prefixes:[] (Rd_routing.Process_graph.build catalog2)
  in
  check_bool "no knob, no default" true
    (Rd_sim.Propagate.forwards_to sim2 ~router:1 (ip "8.8.8.8") = None)

let test_interface_qualified_dlist () =
  (* r2 filters routes arriving over Serial0/0 specifically: 10.2/16 is
     blocked on that interface while a second link lets it through *)
  let routers =
    [
      ( "r1",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Ethernet0
 ip address 10.2.0.1 255.255.255.0
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 10.2.0.0 0.0.0.255 area 0
|} );
      ( "r2",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 distribute-list 7 in Serial0/0
!
access-list 7 deny 10.2.0.0 0.0.255.255
access-list 7 permit any
|} );
    ]
  in
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  let sim =
    Rd_sim.Propagate.run ~external_prefixes:[] (Rd_routing.Process_graph.build catalog)
  in
  let r2_ospf = List.hd catalog.by_router.(1) in
  let rib = Rd_sim.Propagate.rib_of_process sim r2_ospf in
  check_bool "filtered on the interface" true (Rd_sim.Rib.find rib (pfx "10.2.0.0/24") = None);
  check_bool "link subnet still there" true (Rd_sim.Rib.find rib (pfx "10.0.0.0/30") <> None)

let test_aggregate_address () =
  (* x aggregates its two /24s into a summary-only /23 toward y: y sees the
     aggregate but not the components *)
  let routers =
    [
      ( "x",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Ethernet0
 ip address 10.8.0.1 255.255.255.0
!
interface Ethernet1
 ip address 10.8.1.1 255.255.255.0
!
router bgp 65001
 network 10.8.0.0 mask 255.255.255.0
 network 10.8.1.0 mask 255.255.255.0
 aggregate-address 10.8.0.0 255.255.254.0 summary-only
 neighbor 10.0.0.2 remote-as 65002
|} );
      ( "y",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router bgp 65002
 neighbor 10.0.0.1 remote-as 65001
|} );
    ]
  in
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  let sim =
    Rd_sim.Propagate.run ~external_prefixes:[] (Rd_routing.Process_graph.build catalog)
  in
  let y_pid =
    List.find
      (fun pid -> catalog.processes.(pid).Rd_routing.Process.protocol = Ast.Bgp)
      catalog.by_router.(1)
  in
  let y_rib = Rd_sim.Propagate.rib_of_process sim y_pid in
  check_bool "aggregate received" true (Rd_sim.Rib.find y_rib (pfx "10.8.0.0/23") <> None);
  check_bool "component suppressed" true (Rd_sim.Rib.find y_rib (pfx "10.8.0.0/24") = None);
  (* the aggregating router itself keeps the components *)
  let x_pid =
    List.find
      (fun pid -> catalog.processes.(pid).Rd_routing.Process.protocol = Ast.Bgp)
      catalog.by_router.(0)
  in
  check_bool "origin keeps components" true
    (Rd_sim.Rib.find (Rd_sim.Propagate.rib_of_process sim x_pid) (pfx "10.8.0.0/24") <> None)

let test_aggregate_needs_component () =
  (* without any component route the aggregate is not originated *)
  let routers =
    [
      ( "x",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
router bgp 65001
 aggregate-address 10.8.0.0 255.255.254.0
 neighbor 10.0.0.2 remote-as 65002
|} );
    ]
  in
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  let sim =
    Rd_sim.Propagate.run ~external_prefixes:[] (Rd_routing.Process_graph.build catalog)
  in
  let x_pid = List.hd catalog.by_router.(0) in
  check_bool "no component, no aggregate" true
    (Rd_sim.Rib.find (Rd_sim.Propagate.rib_of_process sim x_pid) (pfx "10.8.0.0/23") = None)

(* net5's six redistribution routers — the paper's §5.1 headline *)
let test_net5_cut () =
  let net = Rd_gen.Gen_compartment.generate (Rd_gen.Gen_compartment.net5_params ~seed:42) in
  let a = Rd_core.Analysis.analyze ~name:"net5" (Rd_gen.Builder.to_texts net) in
  let insts = a.graph.assignment.instances in
  let find f = Array.to_list insts |> List.find f in
  let big =
    find (fun (i : Rd_routing.Instance.t) -> i.protocol <> Ast.Bgp && Rd_routing.Instance.size i > 400)
  in
  let glue = find (fun (i : Rd_routing.Instance.t) -> i.asn = Some 65001) in
  match Rd_sim.Failure.min_router_failures a.graph ~src:glue.inst_id ~dst:big.inst_id with
  | Rd_sim.Failure.Cut (k, _) -> check_int "six redistribution routers" 6 k
  | _ -> Alcotest.fail "expected a cut"

let test_disconnection_scenarios () =
  let g = analyze_graph glued in
  let scenarios = Rd_sim.Failure.disconnection_scenarios g in
  (* both directions between the two instances *)
  check_int "scenarios" 2 (List.length scenarios)

(* ------------------------------------------------------------ reference --- *)

(* The semi-naive simulator against the round-robin reference
   (propagate_ref.ml).  Rounds are preserved, so the two must agree not
   only at the fixpoint but after every round: process RIBs, every
   router RIB, the round count and [converged]. *)

let graph_of_texts ~name files =
  Rd_routing.Process_graph.build (Rd_core.Analysis.analyze ~name files).catalog

let disagreement (sim : Rd_sim.Propagate.t) (r : Propagate_ref.t) =
  let first_diff n f =
    let rec go i = if i >= n then None else if f i then Some i else go (i + 1) in
    go 0
  in
  let routes = Rd_sim.Rib.routes in
  if sim.iterations <> r.iterations then
    Some (Printf.sprintf "%d rounds, reference %d" sim.iterations r.iterations)
  else if sim.converged <> r.converged then Some "converged flag differs"
  else
    match
      first_diff (Array.length r.proc_ribs) (fun pid ->
          routes (Rd_sim.Propagate.rib_of_process sim pid) <> routes r.proc_ribs.(pid))
    with
    | Some pid -> Some (Printf.sprintf "process %d RIB differs" pid)
    | None -> (
      match
        first_diff (Array.length r.router_ribs) (fun ri ->
            routes (Rd_sim.Propagate.rib_of_router sim ri) <> routes r.router_ribs.(ri))
      with
      | Some ri -> Some (Printf.sprintf "router %d RIB differs" ri)
      | None -> None)

(* Returns the round count, so callers can sweep the budgets below it. *)
let check_agrees ?limits ?external_prefixes label graph =
  let sim = Rd_sim.Propagate.run ?limits ?external_prefixes graph in
  let r = Propagate_ref.run ?limits ?external_prefixes graph in
  (match disagreement sim r with
   | None -> ()
   | Some d -> Alcotest.failf "%s: %s" label d);
  sim.iterations

let check_agrees_every_budget ?external_prefixes label graph =
  let rounds = check_agrees ?external_prefixes label graph in
  for k = 1 to rounds do
    let limits = { Rd_util.Limits.default with max_propagate_iterations = k } in
    let label = Printf.sprintf "%s, %d-round budget" label k in
    ignore (check_agrees ~limits ?external_prefixes label graph)
  done

let flavors =
  Rd_gen.Archetype.[ Backbone; Enterprise; Compartment; Restricted; Tier2; Hub_spoke; Igp_only ]

let flavor_graph arch ~seed ~n =
  let net = Rd_gen.Archetype.generate arch ~seed ~n ~index:(seed mod 7) () in
  graph_of_texts ~name:(Rd_gen.Archetype.to_string arch) (Rd_gen.Builder.to_texts net)

let test_ref_flavors () =
  List.iter
    (fun arch ->
      let label = Rd_gen.Archetype.to_string arch in
      let g = flavor_graph arch ~seed:11 ~n:16 in
      check_agrees_every_budget label g;
      check_agrees_every_budget ~external_prefixes:[] (label ^ " without offers") g;
      check_agrees_every_budget
        ~external_prefixes:[ pfx "198.18.0.0/15"; pfx "10.0.0.0/8"; Prefix.default ]
        (label ^ " with specific offers") g)
    flavors

(* The seed-2004 study networks the benchmark's cross-check covers. *)
let test_ref_study_networks () =
  List.iter
    (fun (spec : Rd_study.Population.spec) ->
      check_agrees_every_budget spec.label
        (graph_of_texts ~name:spec.label (Rd_study.Population.generate_one spec)))
    (List.filter
       (fun (s : Rd_study.Population.spec) -> s.n <= 110)
       (Rd_study.Population.specs ~master_seed:2004))

(* One round is one generation: the work counters the round-robin
   schedule reports (rounds, RIB-changing installs) are unchanged, and
   the propagate.fixpoint fault site fires once per round in both. *)
let test_ref_counters_and_fault_site () =
  List.iter
    (fun arch ->
      let label = Rd_gen.Archetype.to_string arch in
      let g = flavor_graph arch ~seed:5 ~n:14 in
      let observe run =
        let m = Rd_util.Metrics.create () in
        let faults =
          match Rd_util.Fault.of_spec "seed=1;propagate.fixpoint:delay=0" with
          | Ok f -> f
          | Error e -> Alcotest.fail e
        in
        let rounds = run ~metrics:m ~faults g in
        let counter name = Option.value (Rd_util.Metrics.counter_value m name) ~default:0 in
        ( rounds,
          List.length (Rd_util.Fault.injections faults),
          counter "propagate.fixpoint_iterations",
          counter "propagate.routes_installed" )
      in
      let rounds, fired, iters, installs =
        observe (fun ~metrics ~faults g -> (Rd_sim.Propagate.run ~metrics ~faults g).iterations)
      in
      let rounds', fired', iters', installs' =
        observe (fun ~metrics ~faults g -> (Propagate_ref.run ~metrics ~faults g).iterations)
      in
      check_int (label ^ ": rounds") rounds' rounds;
      check_int (label ^ ": fault site once per round") rounds fired;
      check_int (label ^ ": fault site as often as the reference") fired' fired;
      check_int (label ^ ": fixpoint_iterations") iters' iters;
      check_int (label ^ ": routes_installed") installs' installs)
    flavors

let arb_flavor_net =
  QCheck.make
    ~print:(fun (a, s, n, o) -> Printf.sprintf "arch=%d seed=%d n=%d offers=%d" a s n o)
    QCheck.Gen.(
      let* a = int_bound 6 in
      let* s = int_bound 500 in
      let* n = int_range 5 14 in
      let* o = int_bound 2 in
      return (a, s, n, o))

let prop_ref_random_nets =
  QCheck.Test.make ~name:"semi-naive = round-robin" ~count:25
    arb_flavor_net (fun (a, s, n, o) ->
      let external_prefixes =
        [| []; [ Prefix.default ]; [ pfx "203.0.113.0/24"; pfx "10.0.0.0/8"; Prefix.default ] |].(o)
      in
      check_agrees_every_budget ~external_prefixes "random net"
        (flavor_graph (List.nth flavors a) ~seed:s ~n);
      true)

let () =
  Alcotest.run "rd_sim"
    [
      ( "rib",
        [
          Alcotest.test_case "admin distance order" `Quick test_admin_distance_order;
          Alcotest.test_case "selection" `Quick test_rib_selection;
          Alcotest.test_case "metric tiebreak" `Quick test_rib_metric_tiebreak;
          Alcotest.test_case "longest-prefix lookup" `Quick test_rib_lookup_lpm;
          Alcotest.test_case "floating static" `Quick test_rib_floating_static;
          Alcotest.test_case "as-path tiebreak" `Quick test_rib_as_path_tiebreak;
          Alcotest.test_case "merge" `Quick test_rib_merge;
          Alcotest.test_case "lookup /0 and /32" `Quick test_rib_lookup_bounds;
          Alcotest.test_case "of_routes rejects unsorted" `Quick test_rib_of_routes_rejects;
          QCheck_alcotest.to_alcotest prop_rib_model;
          QCheck_alcotest.to_alcotest prop_rib_merge;
        ] );
      ( "propagate",
        [
          Alcotest.test_case "igp exchange" `Quick test_propagate_igp;
          Alcotest.test_case "cancellation degrades" `Quick test_propagate_cancel_degrades;
          Alcotest.test_case "connected preferred" `Quick test_propagate_connected_preferred;
          Alcotest.test_case "external injection" `Quick test_propagate_external_injection;
          Alcotest.test_case "loads" `Quick test_propagate_loads;
          Alcotest.test_case "instance load without members" `Quick
            test_instance_load_no_members;
        ] );
      ( "bgp semantics",
        [
          Alcotest.test_case "ibgp non-transitivity" `Quick test_ibgp_nontransitive;
          Alcotest.test_case "route reflection" `Quick test_route_reflector;
          Alcotest.test_case "ebgp as-path" `Quick test_ebgp_as_path_and_loop;
          Alcotest.test_case "redistribution strips attributes" `Quick
            test_redistribution_strips_attributes;
          Alcotest.test_case "default-information originate" `Quick
            test_default_information_originate;
          Alcotest.test_case "interface-qualified dlist" `Quick test_interface_qualified_dlist;
          Alcotest.test_case "aggregate-address" `Quick test_aggregate_address;
          Alcotest.test_case "aggregate needs component" `Quick test_aggregate_needs_component;
        ] );
      ( "reference",
        [
          Alcotest.test_case "every flavor, every round budget" `Quick test_ref_flavors;
          Alcotest.test_case "study networks, every budget" `Slow
            test_ref_study_networks;
          Alcotest.test_case "counters, fault site per round" `Quick
            test_ref_counters_and_fault_site;
          QCheck_alcotest.to_alcotest prop_ref_random_nets;
        ] );
      ( "failure",
        [
          Alcotest.test_case "single glue router" `Quick test_failure_single_glue;
          Alcotest.test_case "already partitioned" `Quick test_failure_already_partitioned;
          Alcotest.test_case "net5 six-router cut" `Slow test_net5_cut;
          Alcotest.test_case "disconnection scenarios" `Quick test_disconnection_scenarios;
        ] );
    ]
