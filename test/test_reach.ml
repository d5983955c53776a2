(* Tests for rd_reach: instance-level reachability with policies. *)

open Rd_addr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string_exn

let cfg = Rd_config.Parser.parse

(* Two OSPF islands joined by a border that redistributes with a filter:
   only 10.1.0.0/16 may flow from island A into island B. *)
let filtered_pair =
  [
    ( "a1",
      cfg
        {|interface Ethernet0
 ip address 10.1.5.1 255.255.255.0
!
interface Ethernet1
 ip address 10.2.5.1 255.255.255.0
!
interface Serial0/0
 ip address 10.9.0.1 255.255.255.252
!
router ospf 1
 network 10.1.5.0 0.0.0.255 area 0
 network 10.2.5.0 0.0.0.255 area 0
 network 10.9.0.0 0.0.0.3 area 0
|} );
    ( "border",
      cfg
        {|interface Serial0/0
 ip address 10.9.0.2 255.255.255.252
!
interface Serial0/1
 ip address 10.9.0.5 255.255.255.252
!
router ospf 1
 network 10.9.0.0 0.0.0.3 area 0
!
router ospf 2
 network 10.9.0.4 0.0.0.3 area 0
 redistribute ospf 1 route-map ONLY-TEN-ONE subnets
!
access-list 7 permit 10.1.0.0 0.0.255.255
route-map ONLY-TEN-ONE permit 10
 match ip address 7
|} );
    ( "b1",
      cfg
        {|interface Serial0/0
 ip address 10.9.0.6 255.255.255.252
!
interface Ethernet0
 ip address 10.50.1.1 255.255.255.0
!
router ospf 9
 network 10.9.0.4 0.0.0.3 area 0
 network 10.50.1.0 0.0.0.255 area 0
|} );
  ]

let analyze routers =
  let topo = Rd_topo.Topology.build routers in
  let catalog = Rd_routing.Process.build topo in
  Rd_routing.Instance_graph.build catalog

let test_origins () =
  let g = analyze filtered_pair in
  check_int "two instances" 2 (Array.length g.assignment.instances);
  let r = Rd_reach.Reachability.compute g in
  (* island A's origin includes its LANs *)
  let inst_a =
    (Array.to_list g.assignment.instances
    |> List.find (fun (i : Rd_routing.Instance.t) -> List.mem 0 i.routers))
      .inst_id
  in
  check_bool "origin lan" true (Prefix_set.mem (ip "10.1.5.7") r.origins.(inst_a));
  check_bool "origin link" true (Prefix_set.mem (ip "10.9.0.1") r.origins.(inst_a));
  check_bool "not other island" false (Prefix_set.mem (ip "10.50.1.1") r.origins.(inst_a))

let test_filtered_flow () =
  let g = analyze filtered_pair in
  let r = Rd_reach.Reachability.compute g in
  let inst_b =
    (Array.to_list g.assignment.instances
    |> List.find (fun (i : Rd_routing.Instance.t) -> List.mem 2 i.routers))
      .inst_id
  in
  (* B learned 10.1/16 routes but not 10.2/16: the route-map filtered *)
  check_bool "permitted flows" true (Prefix_set.mem (ip "10.1.5.7") r.routes.(inst_b));
  check_bool "filtered blocked" false (Prefix_set.mem (ip "10.2.5.7") r.routes.(inst_b))

let test_reachability_verdicts () =
  let g = analyze filtered_pair in
  let r = Rd_reach.Reachability.compute g in
  (* host in B can reach 10.1/16 but not 10.2/16 *)
  check_bool "b to a1-lan1" true (Rd_reach.Reachability.can_reach r ~src:(ip "10.50.1.9") ~dst:(ip "10.1.5.9"));
  check_bool "b to a1-lan2 blocked" false
    (Rd_reach.Reachability.can_reach r ~src:(ip "10.50.1.9") ~dst:(ip "10.2.5.9"));
  (* one-way: A can reach B's LAN (no filter in that direction)? the
     redistribution is only into ospf 2 — island A never learns B's
     routes, so A cannot reach B *)
  check_bool "a to b blocked" false
    (Rd_reach.Reachability.can_reach r ~src:(ip "10.1.5.9") ~dst:(ip "10.50.1.9"));
  check_bool "unknown src" false (Rd_reach.Reachability.can_reach r ~src:(ip "8.8.8.8") ~dst:(ip "10.1.5.9"))

let test_internal_space_and_default () =
  let g = analyze filtered_pair in
  let r = Rd_reach.Reachability.compute g in
  check_bool "internal space" true (Prefix_set.mem (ip "10.50.1.1") (Rd_reach.Reachability.internal_space r));
  (* no external edges here: no default route anywhere *)
  Array.iter
    (fun (i : Rd_routing.Instance.t) ->
      check_bool "no default" false (Rd_reach.Reachability.has_default r i.inst_id))
    g.assignment.instances

let test_external_offers () =
  (* a border with an EBGP peering to the outside pulls in external routes *)
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
 redistribute ospf 1
|} );
    ]
  in
  let g = analyze routers in
  let r = Rd_reach.Reachability.compute g in
  let ospf =
    (Array.to_list g.assignment.instances
    |> List.find (fun (i : Rd_routing.Instance.t) -> i.protocol = Rd_config.Ast.Ospf))
      .inst_id
  in
  check_bool "default present" true (Rd_reach.Reachability.has_default r ospf);
  check_bool "external dest reachable" true
    (Rd_reach.Reachability.can_reach r ~src:(ip "10.0.0.9") ~dst:(ip "203.0.113.1"));
  (* external routes = everything minus internal *)
  let ext = Rd_reach.Reachability.external_routes_of r ospf in
  check_bool "external excludes own lan" false (Prefix_set.mem (ip "10.0.0.1") ext);
  check_bool "external has outside" true (Prefix_set.mem (ip "203.0.113.1") ext);
  (* the outside world hears our routes *)
  (match List.assoc_opt 7018 r.advertised with
   | Some s -> check_bool "lan advertised" true (Prefix_set.mem (ip "10.0.0.1") s)
   | None -> Alcotest.fail "no advertisement record")

let test_restricted_offers () =
  (* restrict what the outside offers: only one /16 *)
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
  let g = analyze routers in
  let offers = Prefix_set.of_prefix (Prefix.of_string_exn "198.18.0.0/16") in
  let r = Rd_reach.Reachability.compute ~external_offers:offers g in
  check_bool "offered reachable" true
    (Rd_reach.Reachability.can_reach r ~src:(ip "10.0.0.9") ~dst:(ip "198.18.1.1"));
  check_bool "unoffered unreachable" false
    (Rd_reach.Reachability.can_reach r ~src:(ip "10.0.0.9") ~dst:(ip "8.8.8.8"))

let test_net15_full () =
  (* end-to-end: the paper's net15 verdicts from generated configs *)
  let net = Rd_gen.Gen_restricted.generate (Rd_gen.Gen_restricted.net15_params ~seed:77) in
  let a = Rd_core.Analysis.analyze ~name:"net15" (Rd_gen.Builder.to_texts net) in
  let r = Rd_reach.Reachability.compute a.graph in
  let layout = Rd_gen.Gen_restricted.default_layout in
  let host p = Prefix.nth p (Prefix.size p / 2) in
  check_bool "AB2 !-> AB4" false
    (Rd_reach.Reachability.can_reach r ~src:(host layout.ab2) ~dst:(host layout.ab4));
  check_bool "AB4 !-> AB2" false
    (Rd_reach.Reachability.can_reach r ~src:(host layout.ab4) ~dst:(host layout.ab2));
  check_bool "AB2 -> AB0" true
    (Rd_reach.Reachability.can_reach r ~src:(host layout.ab2) ~dst:(host (List.hd layout.ab0)));
  check_bool "AB4 -> AB0" true
    (Rd_reach.Reachability.can_reach r ~src:(host layout.ab4) ~dst:(host (List.hd layout.ab0)));
  Array.iter
    (fun (i : Rd_routing.Instance.t) ->
      check_bool "no default anywhere" false (Rd_reach.Reachability.has_default r i.inst_id))
    a.graph.assignment.instances

let test_fixpoint_terminates () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Compartment ~seed:3 ~n:30 ~index:1 () in
  let a = Rd_core.Analysis.analyze ~name:"c" (Rd_gen.Builder.to_texts net) in
  let r = Rd_reach.Reachability.compute a.graph in
  check_bool "few iterations" true (r.iterations < 30)

let test_origins_bulk_shared () =
  (* origins_bulk memoizes per graph and hands every caller the SAME
     physical array — so the fixpoints must copy before seeding, never
     mutate it in place.  Pin both halves of that contract. *)
  let g = analyze filtered_pair in
  let o1 = Rd_reach.Reachability.origins_bulk g in
  let o2 = Rd_reach.Reachability.origins_bulk g in
  check_bool "same physical array" true (o1 == o2);
  let snapshot = Array.map Fun.id o1 in
  let r = Rd_reach.Reachability.compute g in
  let r' = Rd_reach.Reachability.compute_rounds g in
  Array.iteri
    (fun i s ->
      check_bool (Printf.sprintf "compute left origins[%d] alone" i) true
        (Prefix_set.equal s o1.(i)))
    snapshot;
  (* a caller mutating its own shallow copy must not leak into the cache *)
  let copy = Array.map Fun.id o1 in
  copy.(0) <- Prefix_set.empty;
  check_bool "cache unaffected by caller copy" true
    (Prefix_set.equal snapshot.(0) (Rd_reach.Reachability.origins_bulk g).(0));
  Array.iteri
    (fun i s ->
      check_bool (Printf.sprintf "rounds agree on routes[%d]" i) true
        (Prefix_set.equal s r'.routes.(i)))
    r.routes

let default_originate_net =
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

let test_default_originate_seeded () =
  (* default-information originate backed by a static default must show up
     in the static route sets (the simulator injects 0/0 there, and the
     cross-check oracle needs sim ⊆ static) — but never in the ORIGIN
     sets, which drive instance_of_addr / internal-space attribution. *)
  let g = analyze default_originate_net in
  let r = Rd_reach.Reachability.compute g in
  let inst = g.assignment.of_process.(0) in
  check_bool "routes hold the default" true (Prefix_set.mem (ip "8.8.8.8") r.routes.(inst));
  check_bool "origins do not" false (Prefix_set.mem (ip "8.8.8.8") r.origins.(inst));
  let r2 = Rd_reach.Reachability.compute_rounds g in
  check_bool "rounds seed identically" true
    (Prefix_set.equal r.routes.(inst) r2.routes.(inst));
  (* without the knob nothing is seeded *)
  let stripped =
    List.map
      (fun (n, (c : Rd_config.Ast.t)) ->
        ( n,
          {
            c with
            Rd_config.Ast.processes =
              List.map
                (fun (p : Rd_config.Ast.router_process) ->
                  { p with Rd_config.Ast.default_originate = false })
                c.processes;
          } ))
      default_originate_net
  in
  let g2 = analyze stripped in
  let r3 = Rd_reach.Reachability.compute g2 in
  check_bool "no knob, no default" false
    (Prefix_set.mem (ip "8.8.8.8") r3.routes.(g2.assignment.of_process.(0)))

(* The worklist fixpoint must land on exactly the same least fixpoint as
   the legacy whole-edge-list sweep it replaced — checked field by field
   (routes, origins, advertised incl. order, internal space) over every
   network of the 31-network study. *)
let same_fixpoint label (w : Rd_reach.Reachability.t) (r : Rd_reach.Reachability.t) =
  check_int (label ^ ": instance count") (Array.length r.routes) (Array.length w.routes);
  Array.iteri
    (fun i s ->
      check_bool (Printf.sprintf "%s: routes[%d]" label i) true
        (Prefix_set.equal s w.routes.(i)))
    r.routes;
  Array.iteri
    (fun i s ->
      check_bool (Printf.sprintf "%s: origins[%d]" label i) true
        (Prefix_set.equal s w.origins.(i)))
    r.origins;
  check_int (label ^ ": advertised count") (List.length r.advertised)
    (List.length w.advertised);
  List.iter2
    (fun (a1, s1) (a2, s2) ->
      check_int (label ^ ": advertised order") a1 a2;
      check_bool (Printf.sprintf "%s: advertised AS%d" label a1) true
        (Prefix_set.equal s1 s2))
    r.advertised w.advertised;
  check_bool (label ^ ": internal space") true (Prefix_set.equal r.internal w.internal)

(* The pre-kernel fixpoint: whole-edge-list rounds over structural
   (non-hash-consed, non-memoized) prefix sets, started from the same
   [initial_routes] as [compute].  An independent implementation of the
   same least fixpoint, sharing no set algebra with the kernel. *)
module R = Prefix_set_ref

let to_ref s = R.of_prefixes (Prefix_set.to_prefixes s)

let structural_fixpoint (g : Rd_routing.Instance_graph.t) =
  let routes = Array.map to_ref (Rd_reach.Reachability.initial_routes g) in
  let edges =
    List.map
      (fun (e : Rd_routing.Instance_graph.edge) ->
        (e, to_ref (Rd_policy.Route_filter.permitted e.filter)))
      g.edges
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((e : Rd_routing.Instance_graph.edge), filter) ->
        let inflow =
          match e.src with
          | Rd_routing.Instance_graph.External _ -> R.full
          | Rd_routing.Instance_graph.Inst i -> routes.(i)
        in
        match e.dst with
        | Rd_routing.Instance_graph.External _ -> ()
        | Rd_routing.Instance_graph.Inst d ->
          let merged = R.union routes.(d) (R.inter filter inflow) in
          if not (R.equal merged routes.(d)) then begin
            routes.(d) <- merged;
            changed := true
          end)
      edges
  done;
  routes

let test_worklist_matches_rounds_study () =
  let nets = Study_build.networks ~master_seed:2004 () in
  check_int "31 networks" 31 (List.length nets);
  List.iter
    (fun (n : Rd_study.Population.network) ->
      let g = n.analysis.graph in
      let w = Rd_reach.Reachability.compute g in
      same_fixpoint n.spec.label w (Rd_reach.Reachability.compute_rounds g);
      Array.iteri
        (fun i s ->
          check_bool (Printf.sprintf "%s: structural routes[%d]" n.spec.label i) true
            (R.equal s (to_ref w.routes.(i))))
        (structural_fixpoint g))
    nets

(* The engine serves each scenario from its stores (baseline fixpoint
   shared across the sweep, scenario fixpoint keyed by the scenario); its
   diff must render exactly what a cold [Whatif.run] renders — across
   every generator archetype and a representative change of each kind. *)
let all_archetypes =
  [
    Rd_gen.Archetype.Backbone;
    Rd_gen.Archetype.Enterprise;
    Rd_gen.Archetype.Compartment;
    Rd_gen.Archetype.Restricted;
    Rd_gen.Archetype.Tier2;
    Rd_gen.Archetype.Hub_spoke;
    Rd_gen.Archetype.Igp_only;
  ]

let test_delta_matches_scratch_archetypes () =
  List.iter
    (fun arch ->
      let label = Rd_gen.Archetype.to_string arch in
      let net = Rd_gen.Archetype.generate arch ~seed:17 ~n:16 ~index:3 () in
      let files = Rd_gen.Builder.to_texts net in
      let a = Rd_core.Analysis.analyze ~name:label files in
      let engine = Rd_core.Engine.create () in
      let loaded = Rd_core.Engine.load engine ~name:label files in
      let last_router = fst a.topo.routers.(Array.length a.topo.routers - 1) in
      let changes =
        [
          [ Rd_core.Whatif.Remove_router last_router ];
          (match
             List.find_opt
               (fun (l : Rd_topo.Topology.link) ->
                 List.exists (fun (e : Rd_topo.Topology.iface) -> e.router = 0) l.endpoints)
               a.topo.links
           with
           | Some l -> [ Rd_core.Whatif.Remove_link l.subnet_of_link ]
           | None -> []);
          (if Array.length a.topo.ifaces > 0 then
             let i = a.topo.ifaces.(0) in
             [ Rd_core.Whatif.Shutdown_interface (fst a.topo.routers.(i.router), i.name) ]
           else []);
        ]
      in
      List.iter
        (fun changes ->
          if changes <> [] then begin
            let scenario = { Rd_core.Whatif.label = "s"; changes } in
            let o = Rd_core.Engine.run_scenario engine loaded scenario in
            Alcotest.(check string)
              (Printf.sprintf "%s/%s" label (Rd_core.Whatif.scenario_to_string scenario))
              (Rd_core.Whatif.render (Rd_core.Whatif.run a changes))
              (Rd_core.Whatif.render o.diff)
          end)
        changes)
    all_archetypes

(* ------------------------------------------------------------ properties --- *)

let arb_seed_net =
  QCheck.make
    ~print:(fun (a, s, n) -> Printf.sprintf "arch=%d seed=%d n=%d" a s n)
    QCheck.Gen.(
      let* a = int_bound 2 in
      let* s = int_bound 500 in
      let* n = int_range 6 18 in
      return (a, s, n))

let graph_of (a, s, n) =
  let arch =
    [| Rd_gen.Archetype.Enterprise; Rd_gen.Archetype.Compartment; Rd_gen.Archetype.Hub_spoke |].(a)
  in
  let net = Rd_gen.Archetype.generate arch ~seed:s ~n ~index:(s mod 13) () in
  (Rd_core.Analysis.analyze ~name:"p" (Rd_gen.Builder.to_texts net)).graph

(* Each instrumented fixpoint polls its token once per generation at
   site "reach.fixpoint": a pre-cancelled token must surface within the
   first generation of each entry point, as a Cancelled carrying that
   site — never a partial result. *)
let test_reach_cancel_site () =
  let g = graph_of (0, 7, 10) in
  let tripped () =
    let t = Rd_util.Cancel.create () in
    Rd_util.Cancel.cancel ~reason:"deadline-test" t;
    t
  in
  let expect_cancelled name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Cancelled to escape" name
    | exception Rd_util.Cancel.Cancelled { site = "reach.fixpoint"; _ } -> ()
    | exception Rd_util.Cancel.Cancelled { site; _ } ->
      Alcotest.failf "%s: wrong poll site %s" name site
  in
  expect_cancelled "compute" (fun () ->
      Rd_reach.Reachability.compute ~cancel:(tripped ()) g);
  expect_cancelled "compute_rounds" (fun () ->
      Rd_reach.Reachability.compute_rounds ~cancel:(tripped ()) g);
  let base = Rd_reach.Reachability.compute g in
  (* a live token leaves the fixpoint untouched *)
  let live = Rd_util.Cancel.create ~deadline:600.0 () in
  let w = Rd_reach.Reachability.compute ~cancel:live g in
  Alcotest.(check bool) "live token, same fixpoint" true
    (Array.for_all2 Prefix_set.equal w.routes base.routes)

let prop_worklist_matches_rounds =
  QCheck.Test.make ~name:"worklist fixpoint = round-robin fixpoint" ~count:10 arb_seed_net
    (fun spec ->
      let g = graph_of spec in
      let w = Rd_reach.Reachability.compute g in
      let r = Rd_reach.Reachability.compute_rounds g in
      Array.for_all2 Prefix_set.equal w.routes r.routes
      && Array.for_all2 Prefix_set.equal w.origins r.origins
      && List.length w.advertised = List.length r.advertised
      && List.for_all2
           (fun (a, s) (b, t) -> a = b && Prefix_set.equal s t)
           w.advertised r.advertised)

let prop_offers_monotone =
  QCheck.Test.make ~name:"external offers are monotone" ~count:15 arb_seed_net (fun spec ->
      let g = graph_of spec in
      let empty = Rd_reach.Reachability.compute ~external_offers:Prefix_set.empty g in
      let full = Rd_reach.Reachability.compute g in
      Array.for_all2 (fun a b -> Prefix_set.subset a b) empty.routes full.routes)

let prop_routes_include_origins =
  QCheck.Test.make ~name:"routes include origins" ~count:15 arb_seed_net (fun spec ->
      let g = graph_of spec in
      let r = Rd_reach.Reachability.compute g in
      Array.for_all2 (fun o routes -> Prefix_set.subset o routes) r.origins r.routes)

let prop_internal_reachability_symmetric_origin =
  QCheck.Test.make ~name:"hosts reach their own instance" ~count:15 arb_seed_net (fun spec ->
      let g = graph_of spec in
      let r = Rd_reach.Reachability.compute g in
      Array.for_all
        (fun origin ->
          match Prefix_set.to_prefixes origin with
          | [] -> true
          | p :: _ ->
            let h = Rd_addr.Prefix.nth p 0 in
            Rd_reach.Reachability.can_reach r ~src:h ~dst:h)
        r.origins)

let () =
  Alcotest.run "rd_reach"
    [
      ( "reachability",
        [
          Alcotest.test_case "origin sets" `Quick test_origins;
          Alcotest.test_case "filtered route flow" `Quick test_filtered_flow;
          Alcotest.test_case "reachability verdicts" `Quick test_reachability_verdicts;
          Alcotest.test_case "internal space and defaults" `Quick test_internal_space_and_default;
          Alcotest.test_case "external offers" `Quick test_external_offers;
          Alcotest.test_case "restricted offers" `Quick test_restricted_offers;
          Alcotest.test_case "net15 end to end" `Quick test_net15_full;
          Alcotest.test_case "fixpoint terminates" `Quick test_fixpoint_terminates;
          Alcotest.test_case "origins_bulk is shared and never mutated" `Quick
            test_origins_bulk_shared;
          Alcotest.test_case "default-originate seeds routes not origins" `Quick
            test_default_originate_seeded;
          Alcotest.test_case "cancellation polls at reach.fixpoint" `Quick
            test_reach_cancel_site;
          Alcotest.test_case "worklist = rounds on 31-network study" `Slow
            test_worklist_matches_rounds_study;
        ] );
      ( "delta",
        [
          Alcotest.test_case "delta = scratch on all archetypes" `Quick
            test_delta_matches_scratch_archetypes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_worklist_matches_rounds;
            prop_offers_monotone;
            prop_routes_include_origins;
            prop_internal_reachability_symmetric_origin;
          ] );
    ]
