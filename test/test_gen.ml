(* Tests for rd_gen: the synthetic network generators, checked against
   their ground truth through the full text pipeline (generate -> print ->
   parse -> analyze). *)

open Rd_config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let analyze_net name net =
  Rd_core.Analysis.analyze ~name (Rd_gen.Builder.to_texts net)

(* ------------------------------------------------------------ addr_plan --- *)

let test_addr_plan_disjoint () =
  let plan = Rd_gen.Addr_plan.create (Rd_addr.Prefix.of_string_exn "10.0.0.0/16") in
  let lans = List.init 10 (fun _ -> Rd_gen.Addr_plan.lan plan) in
  let p2ps = List.init 10 (fun _ -> Rd_gen.Addr_plan.p2p plan) in
  let loops = List.init 10 (fun _ -> Rd_addr.Prefix.host (Rd_gen.Addr_plan.loopback plan)) in
  let all = lans @ p2ps @ loops in
  (* pairwise disjoint *)
  let rec pairs = function
    | [] -> ()
    | x :: rest ->
      List.iter
        (fun y ->
          check_bool
            (Printf.sprintf "disjoint %s %s" (Rd_addr.Prefix.to_string x) (Rd_addr.Prefix.to_string y))
            false (Rd_addr.Prefix.overlap x y))
        rest;
      pairs rest
  in
  pairs all;
  (* everything inside the block *)
  List.iter
    (fun p -> check_bool "inside block" true (Rd_addr.Prefix.subset p (Rd_gen.Addr_plan.block plan)))
    all

let test_addr_plan_carve () =
  let plan = Rd_gen.Addr_plan.create (Rd_addr.Prefix.of_string_exn "10.0.0.0/8") in
  let sub1 = Rd_gen.Addr_plan.carve plan 12 in
  let sub2 = Rd_gen.Addr_plan.carve plan 12 in
  check_bool "carves disjoint" false
    (Rd_addr.Prefix.overlap (Rd_gen.Addr_plan.block sub1) (Rd_gen.Addr_plan.block sub2));
  let lan1 = Rd_gen.Addr_plan.lan sub1 in
  check_bool "sub allocs inside carve" true
    (Rd_addr.Prefix.subset lan1 (Rd_gen.Addr_plan.block sub1))

let test_addr_plan_exhaustion () =
  let plan = Rd_gen.Addr_plan.create (Rd_addr.Prefix.of_string_exn "10.0.0.0/24") in
  (* general region of a /24 is a /25: holds no /24 after one /25 carve *)
  check_bool "exhausts" true
    (try
       for _ = 1 to 10 do
         ignore (Rd_gen.Addr_plan.alloc plan 25)
       done;
       false
     with Failure _ -> true)

(* --------------------------------------------------------------- device --- *)

let test_device_interface_naming () =
  let d = Rd_gen.Device.create "r" in
  let n1 = Rd_gen.Device.add_interface d ~kind:"Serial" () in
  let n2 = Rd_gen.Device.add_interface d ~kind:"Serial" () in
  let n5 = ref "" in
  for _ = 3 to 5 do
    n5 := Rd_gen.Device.add_interface d ~kind:"Serial" ()
  done;
  Alcotest.(check string) "first" "Serial0/0" n1;
  Alcotest.(check string) "second" "Serial0/1" n2;
  Alcotest.(check string) "fifth rolls slot" "Serial1/0" !n5;
  let l = Rd_gen.Device.add_interface d ~kind:"Loopback" () in
  Alcotest.(check string) "loopback flat" "Loopback0" l;
  check_int "count" 6 (List.length (Rd_gen.Device.to_ast d).interfaces)

let test_device_process_update () =
  let d = Rd_gen.Device.create "r" in
  Rd_gen.Device.update_process d Ast.Ospf (Some 1) (fun p -> { p with Ast.default_originate = true });
  Rd_gen.Device.update_process d Ast.Ospf (Some 1) (fun p -> { p with Ast.maximum_paths = Some 4 });
  Rd_gen.Device.update_process d Ast.Ospf (Some 2) (fun p -> p);
  let ast = Rd_gen.Device.to_ast d in
  check_int "two processes" 2 (List.length ast.processes);
  let p1 = List.find (fun (p : Ast.router_process) -> p.proc_id = Some 1) ast.processes in
  check_bool "both updates" true (p1.default_originate && p1.maximum_paths = Some 4)

(* ------------------------------------------------------------ archetypes --- *)

let test_backbone_ground_truth () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Backbone ~seed:21 ~n:80 ~index:4 () in
  let a = analyze_net "bb" net in
  check_int "router count" 80 (Rd_core.Analysis.router_count a);
  let ev = Rd_core.Design_class.classify a in
  check_bool "classified backbone" true (ev.design = Rd_core.Design_class.Backbone);
  check_bool "no bgp->igp" false ev.bgp_into_igp;
  check_bool "bgp spans" true (ev.largest_bgp_span > 0.9);
  check_bool "external sessions" true (ev.external_sessions > 20)

let test_enterprise_ground_truth () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:22 ~n:40 ~index:5 () in
  let a = analyze_net "ent" net in
  check_int "router count" 40 (Rd_core.Analysis.router_count a);
  let ev = Rd_core.Design_class.classify a in
  check_bool "classified enterprise" true (ev.design = Rd_core.Design_class.Enterprise);
  check_bool "bgp->igp" true ev.bgp_into_igp;
  (* a single OSPF instance covering every router *)
  let ospf =
    Array.to_list a.graph.assignment.instances
    |> List.filter (fun (i : Rd_routing.Instance.t) -> i.protocol = Ast.Ospf)
  in
  check_bool "one big ospf" true
    (List.exists (fun i -> Rd_routing.Instance.size i = 40) ospf)

let test_enterprise_two_igp () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:23 ~n:101 ~index:6 () in
  let a = analyze_net "ent101" net in
  let multi =
    Array.to_list a.graph.assignment.instances
    |> List.filter (fun (i : Rd_routing.Instance.t) -> Rd_routing.Instance.size i > 1)
    |> List.filter (fun (i : Rd_routing.Instance.t) -> i.protocol = Ast.Ospf)
  in
  check_int "two IGP instances" 2 (List.length multi);
  check_bool "still enterprise" true
    ((Rd_core.Design_class.classify a).design = Rd_core.Design_class.Enterprise)

let test_net5_census () =
  let net = Rd_gen.Gen_compartment.generate (Rd_gen.Gen_compartment.net5_params ~seed:42) in
  let a = analyze_net "net5" net in
  check_int "881 routers" 881 (Rd_core.Analysis.router_count a);
  check_int "24 instances" 24 (Rd_core.Analysis.instance_count a);
  check_int "14 internal ASs" 14 (List.length (Rd_core.Analysis.internal_bgp_asns a));
  check_int "16 external ASs" 16 (List.length (Rd_core.Analysis.external_asns a));
  (match Rd_core.Analysis.largest_instance a with
   | Some i ->
     check_int "largest 445" 445 (Rd_routing.Instance.size i);
     check_bool "largest is EIGRP" true (i.protocol = Ast.Eigrp)
   | None -> Alcotest.fail "no instances");
  check_bool "unclassifiable" true
    ((Rd_core.Design_class.classify a).design = Rd_core.Design_class.Unclassifiable)

let test_net5_ebgp_intra () =
  let net = Rd_gen.Gen_compartment.generate (Rd_gen.Gen_compartment.net5_params ~seed:42) in
  let a = analyze_net "net5" net in
  let c = Rd_core.Roles.count a in
  let intra, inter = c.ebgp_sessions in
  check_bool "uses EBGP internally" true (intra > 0);
  check_bool "and externally" true (inter > 0)

let test_net15_structure () =
  let net = Rd_gen.Gen_restricted.generate (Rd_gen.Gen_restricted.net15_params ~seed:7) in
  let a = analyze_net "net15" net in
  check_int "79 routers" 79 (Rd_core.Analysis.router_count a);
  check_int "6 instances" 6 (Rd_core.Analysis.instance_count a);
  check_int "2 external ASs" 2 (List.length (Rd_core.Analysis.external_asns a));
  check_bool "peers the paper's ASs" true
    (List.sort compare (Rd_core.Analysis.external_asns a) = [ 12762; 25286 ])

let test_tier2_staging () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Tier2 ~seed:25 ~n:120 ~index:7 () in
  let a = analyze_net "t2" net in
  let ev = Rd_core.Design_class.classify a in
  check_bool "unclassifiable (staging)" true (ev.design = Rd_core.Design_class.Unclassifiable);
  check_bool "many staging instances" true (ev.staging_instances > 20);
  (* staging instances show up as inter-domain IGP roles *)
  let c = Rd_core.Roles.count a in
  let igp_inter = snd c.ospf + snd c.eigrp + snd c.rip in
  check_bool "igp-as-egp present" true (igp_inter > 0)

let test_hubspoke_no_bgp () =
  let net =
    Rd_gen.Archetype.generate Rd_gen.Archetype.Hub_spoke ~seed:26 ~n:25 ~use_bgp:false ~index:8 ()
  in
  let a = analyze_net "hub" net in
  check_bool "no bgp" false (Rd_core.Roles.uses_bgp a);
  check_int "25 routers" 25 (Rd_core.Analysis.router_count a)

let test_igp_only_no_filters () =
  let net =
    Rd_gen.Archetype.generate Rd_gen.Archetype.Igp_only ~seed:27 ~n:6 ~use_filters:false ~index:9 ()
  in
  let a = analyze_net "igp" net in
  check_int "no filter rules" 0 a.filter_stats.total_rules;
  check_bool "no bgp" false (Rd_core.Roles.uses_bgp a)

let test_determinism () =
  let gen () =
    Rd_gen.Builder.to_texts
      (Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:31 ~n:15 ~index:2 ())
  in
  check_bool "same seed same configs" true (gen () = gen ())

let test_seeds_differ () =
  let gen seed =
    Rd_gen.Builder.to_texts
      (Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed ~n:15 ~index:2 ())
  in
  check_bool "different seeds differ" true (gen 1 <> gen 2)

let archetypes =
  [
    Rd_gen.Archetype.Backbone; Rd_gen.Archetype.Enterprise; Rd_gen.Archetype.Compartment;
    Rd_gen.Archetype.Restricted; Rd_gen.Archetype.Tier2; Rd_gen.Archetype.Hub_spoke;
    Rd_gen.Archetype.Igp_only;
  ]

let test_all_archetypes_analyzable () =
  List.iteri
    (fun i arch ->
      let net = Rd_gen.Archetype.generate arch ~seed:(50 + i) ~n:20 ~index:i () in
      let a = analyze_net (Rd_gen.Archetype.to_string arch) net in
      check_bool
        (Rd_gen.Archetype.to_string arch ^ " nonempty")
        true
        (Rd_core.Analysis.instance_count a > 0);
      (* every config parses without unknown lines *)
      List.iter
        (fun (_, (c : Ast.t)) -> check_int "no unknown" 0 (List.length c.unknown))
        a.configs)
    archetypes

let test_archetype_names () =
  List.iter
    (fun arch ->
      check_bool
        (Rd_gen.Archetype.to_string arch ^ " round-trips")
        true
        (Rd_gen.Archetype.of_string (Rd_gen.Archetype.to_string arch) = Some arch))
    archetypes;
  check_bool "all lists every archetype" true (Rd_gen.Archetype.all = archetypes);
  check_bool "typo rejected" true (Rd_gen.Archetype.of_string "bakbone" = None)

let () =
  Alcotest.run "rd_gen"
    [
      ( "addr_plan",
        [
          Alcotest.test_case "allocations disjoint" `Quick test_addr_plan_disjoint;
          Alcotest.test_case "carving" `Quick test_addr_plan_carve;
          Alcotest.test_case "exhaustion" `Quick test_addr_plan_exhaustion;
        ] );
      ( "device",
        [
          Alcotest.test_case "interface naming" `Quick test_device_interface_naming;
          Alcotest.test_case "process update" `Quick test_device_process_update;
        ] );
      ( "archetypes",
        [
          Alcotest.test_case "backbone ground truth" `Quick test_backbone_ground_truth;
          Alcotest.test_case "enterprise ground truth" `Quick test_enterprise_ground_truth;
          Alcotest.test_case "enterprise two-IGP variant" `Quick test_enterprise_two_igp;
          Alcotest.test_case "net5 census" `Slow test_net5_census;
          Alcotest.test_case "net5 internal EBGP" `Slow test_net5_ebgp_intra;
          Alcotest.test_case "net15 structure" `Quick test_net15_structure;
          Alcotest.test_case "tier2 staging" `Quick test_tier2_staging;
          Alcotest.test_case "hub-spoke without bgp" `Quick test_hubspoke_no_bgp;
          Alcotest.test_case "igp-only without filters" `Quick test_igp_only_no_filters;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seeds_differ;
          Alcotest.test_case "all archetypes analyzable" `Slow test_all_archetypes_analyzable;
          Alcotest.test_case "names round-trip" `Quick test_archetype_names;
        ] );
    ]
