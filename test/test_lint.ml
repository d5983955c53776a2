(* Tests for Rd_core.Lint: one seeded-defect fixture per rule (asserting
   code and line), the design rules over analyzed fixtures, clean
   generated networks, and JSON output shape. *)

open Rd_config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lint text = Rd_core.Lint.lint_config ~file:"t.cfg" text

let find code diags = List.filter (fun (d : Diag.t) -> d.code = code) diags

(* Assert exactly one finding with [code], located at [line]. *)
let assert_one ~code ~line ~severity diags =
  match find code diags with
  | [ d ] ->
    check_int (code ^ " line") line (Option.value d.line ~default:(-1));
    check_bool (code ^ " severity") true (d.severity = severity);
    check_bool (code ^ " file") true (d.file = Some "t.cfg")
  | ds -> Alcotest.failf "expected exactly one %s, got %d" code (List.length ds)

let assert_none ~code diags =
  check_int (code ^ " absent") 0 (List.length (find code diags))

(* ------------------------------------------------- dangling references --- *)

let test_undefined_acl () =
  let diags =
    lint "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n ip access-group 120 in\n"
  in
  assert_one ~code:"lint-undefined-acl" ~line:3 ~severity:Diag.Error diags

let test_undefined_acl_distribute_list () =
  let diags = lint "router ospf 1\n distribute-list 44 in\n" in
  assert_one ~code:"lint-undefined-acl" ~line:2 ~severity:Diag.Error diags

let test_undefined_acl_route_map_match () =
  let diags = lint "route-map RM permit 10\n match ip address 7\nrouter ospf 1\n redistribute static route-map RM\n" in
  assert_one ~code:"lint-undefined-acl" ~line:2 ~severity:Diag.Error diags;
  assert_none ~code:"lint-undefined-route-map" diags

let test_undefined_route_map () =
  let diags = lint "router bgp 65001\n neighbor 10.0.0.2 remote-as 65002\n neighbor 10.0.0.2 route-map OUT out\n" in
  assert_one ~code:"lint-undefined-route-map" ~line:3 ~severity:Diag.Error diags

let test_undefined_prefix_list () =
  let diags =
    lint
      "route-map RM permit 10\n match ip address prefix-list PFX\nrouter bgp 9\n neighbor 10.0.0.2 remote-as 8\n neighbor 10.0.0.2 route-map RM in\n"
  in
  assert_one ~code:"lint-undefined-prefix-list" ~line:2 ~severity:Diag.Error diags

let test_defined_refs_clean () =
  let diags =
    lint
      "access-list 10 permit 10.0.0.0 0.255.255.255\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n ip access-group 10 in\n"
  in
  assert_none ~code:"lint-undefined-acl" diags;
  assert_none ~code:"lint-unused-acl" diags

(* --------------------------------------------------- unused definitions --- *)

let test_unused_acl () =
  let diags = lint "access-list 10 permit any\n" in
  assert_one ~code:"lint-unused-acl" ~line:1 ~severity:Diag.Warning diags

let test_unused_acl_access_class () =
  (* a vty access-class reference counts as a use *)
  let diags = lint "access-list 98 permit 10.0.0.0 0.255.255.255\nline vty 0 4\n access-class 98 in\n" in
  assert_none ~code:"lint-unused-acl" diags

let test_unused_route_map () =
  let diags = lint "route-map RM permit 10\n" in
  assert_one ~code:"lint-unused-route-map" ~line:1 ~severity:Diag.Warning diags

(* ------------------------------------------------------------ duplicates --- *)

let test_duplicate_acl () =
  let diags =
    lint
      "ip access-list extended F\n permit ip any any\nip access-list extended F\n deny ip any any\ninterface Ethernet0\n ip access-group F in\n"
  in
  assert_one ~code:"lint-duplicate-acl" ~line:3 ~severity:Diag.Warning diags

let test_duplicate_route_map_seq () =
  let diags =
    lint
      "route-map RM permit 10\nroute-map RM permit 10\nroute-map RM permit 20\nrouter ospf 1\n redistribute static route-map RM\n"
  in
  assert_one ~code:"lint-duplicate-route-map-seq" ~line:2 ~severity:Diag.Warning diags

(* ------------------------------------------------------------------ bgp --- *)

let test_neighbor_no_remote_as () =
  let diags = lint "router bgp 65001\n neighbor 10.0.0.2 update-source Loopback0\n" in
  assert_one ~code:"lint-neighbor-no-remote-as" ~line:2 ~severity:Diag.Error diags

let test_neighbor_with_remote_as_clean () =
  let diags =
    lint "router bgp 65001\n neighbor 10.0.0.2 update-source Loopback0\n neighbor 10.0.0.2 remote-as 65002\n"
  in
  assert_none ~code:"lint-neighbor-no-remote-as" diags

let test_neighbor_peer_group_covers () =
  (* A member inherits remote-as from its peer-group: neither the member
     nor the group template should be flagged. *)
  let diags =
    lint
      "router bgp 65001\n\
      \ neighbor CORE peer-group\n\
      \ neighbor CORE remote-as 65002\n\
      \ neighbor 10.0.0.2 peer-group CORE\n"
  in
  assert_none ~code:"lint-neighbor-no-remote-as" diags

let test_neighbor_peer_group_no_remote_as () =
  (* A member of a group that never supplies remote-as is still broken;
     the template declaration itself is not a session and stays clean. *)
  let diags =
    lint "router bgp 65001\n neighbor OTHER peer-group\n neighbor 10.0.0.4 peer-group OTHER\n"
  in
  assert_one ~code:"lint-neighbor-no-remote-as" ~line:3 ~severity:Diag.Error diags

(* --------------------------------------------------------- redistribute --- *)

let test_redistribute_no_metric () =
  let diags = lint "router ospf 1\n redistribute bgp 65001 subnets\n" in
  assert_one ~code:"lint-redistribute-no-metric" ~line:2 ~severity:Diag.Warning diags

let test_redistribute_with_metric_clean () =
  let diags =
    lint "router ospf 1\n redistribute bgp 65001 metric 100 subnets\n redistribute connected subnets\n redistribute static\n"
  in
  assert_none ~code:"lint-redistribute-no-metric" diags

let test_redistribute_into_non_ospf_clean () =
  let diags = lint "router rip\n redistribute bgp 65001\n" in
  assert_none ~code:"lint-redistribute-no-metric" diags

(* ------------------------------------------------------------- overlaps --- *)

let test_interface_overlap () =
  let diags =
    lint
      "interface Ethernet0\n ip address 10.1.1.1 255.255.255.0\ninterface Ethernet1\n ip address 10.1.1.65 255.255.255.128\n"
  in
  assert_one ~code:"lint-interface-overlap" ~line:4 ~severity:Diag.Warning diags

let test_interface_disjoint_clean () =
  let diags =
    lint
      "interface Ethernet0\n ip address 10.1.1.1 255.255.255.0\ninterface Ethernet1\n ip address 10.1.2.1 255.255.255.0\n"
  in
  assert_none ~code:"lint-interface-overlap" diags

(* ---------------------------------------------------------- design rules --- *)

let analyze files = Rd_core.Analysis.analyze ~name:"t" files

(* Assert exactly one design finding with [code] on [file]: at [line] when
   the texts are supplied, without a line when they are not. *)
let assert_design_line ~code ~file ~line files =
  let a = analyze files in
  List.iter
    (fun (diags, expected) ->
      match find code diags with
      | [ d ] ->
        check_bool (code ^ " file") true (d.file = Some file);
        Alcotest.(check (option int)) (code ^ " line") expected d.line
      | ds -> Alcotest.failf "expected exactly one %s, got %d" code (List.length ds))
    [ (Rd_core.Lint.design ~files a, Some line); (Rd_core.Lint.design a, None) ]

let edge =
  {|interface Serial0/0
 ip address 192.0.2.1 255.255.255.252
!
router bgp 65000
 neighbor 192.0.2.2 remote-as 7018
|}

let test_design_unfiltered_peering () =
  let files = [ ("edge", edge) ] in
  assert_design_line ~code:"lint-unfiltered-peering" ~file:"edge" ~line:5 files;
  assert_design_line ~code:"lint-unfiltered-edge-interface" ~file:"edge" ~line:2 files;
  match find "lint-unfiltered-peering" (Rd_core.Lint.design (analyze files)) with
  | [ d ] ->
    Alcotest.(check string) "message names every filter"
      "EBGP session to AS 7018 (peer 192.0.2.2) has no distribute-list, prefix-list or route-map"
      d.message
  | _ -> Alcotest.fail "expected one unfiltered peering"

let test_design_filtered_peering_clean () =
  (* an inbound-only distribute-list counts as a filter on the session *)
  let files =
    [
      ( "edge",
        {|interface Serial0/0
 ip address 192.0.2.1 255.255.255.252
 ip access-group 10 in
!
router bgp 65000
 neighbor 192.0.2.2 remote-as 7018
 neighbor 192.0.2.2 distribute-list 10 in
!
access-list 10 permit any
|} );
    ]
  in
  let diags = Rd_core.Lint.design ~files (analyze files) in
  assert_none ~code:"lint-unfiltered-peering" diags;
  assert_none ~code:"lint-unfiltered-edge-interface" diags

let test_design_half_covered_link () =
  assert_design_line ~code:"lint-half-covered-link" ~file:"x" ~line:2
    [
      ( "x",
        {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
|} );
      ("y", {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
|});
    ]

let test_design_duplicate_addresses () =
  let one = {|interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
|} in
  assert_design_line ~code:"lint-duplicate-address" ~file:"y" ~line:2 [ ("x", one); ("y", one) ]

let test_design_unresolved_next_hop () =
  let files =
    [
      ( "r",
        {|interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
!
ip route 192.168.0.0 255.255.0.0 172.16.0.1
ip route 192.169.0.0 255.255.0.0 10.0.0.2
ip route 192.170.0.0 255.255.0.0 NoSuchIface0
|} );
    ]
  in
  let found = find "lint-unresolved-next-hop" (Rd_core.Lint.design ~files (analyze files)) in
  check_int "two unresolved" 2 (List.length found);
  check_bool "no line" true (List.for_all (fun (d : Diag.t) -> d.line = None) found)

let test_design_shared_static_destinations () =
  let mk nh =
    Printf.sprintf
      {|interface Ethernet0
 ip address 10.0.%s.1 255.255.255.0
!
ip route 198.18.0.0 255.255.0.0 10.0.%s.2
|}
      nh nh
  in
  let files = [ ("x", mk "1"); ("y", mk "2") ] in
  match find "lint-shared-static-destination" (Rd_core.Lint.design ~files (analyze files)) with
  | [ d ] -> check_bool "several routers, no file" true (d.file = None && d.line = None)
  | ds -> Alcotest.failf "expected one shared destination, got %d" (List.length ds)

let test_design_warnings_first () =
  (* the edge router's findings are Warnings; the stub's OSPF process has
     no adjacency, an Info *)
  let files =
    [
      ("edge", edge);
      ( "stub",
        {|interface Ethernet0
 ip address 10.9.0.1 255.255.255.0
!
router ospf 1
 network 10.9.0.0 0.0.0.255 area 0
|} );
    ]
  in
  let f = Rd_core.Lint.design ~files (analyze files) in
  let is sev (d : Diag.t) = d.severity = sev in
  check_bool "has warnings" true (List.exists (is Diag.Warning) f);
  check_bool "has infos" true (List.exists (is Diag.Info) f);
  let rec check_order seen_info = function
    | [] -> true
    | (x : Diag.t) :: rest ->
      if x.severity = Diag.Warning && seen_info then false
      else check_order (seen_info || x.severity = Diag.Info) rest
  in
  check_bool "warnings first" true (check_order false f);
  check_bool "render" true (String.length (Rd_core.Lint.render f) > 0)

let test_design_ospf_areas () =
  (* multi-area instance without a backbone area, and an area behind a
     single ABR *)
  let no_backbone =
    [
      ( "x",
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
        {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 3
|} );
      ( "z",
        {|interface Serial0/0
 ip address 10.0.1.2 255.255.255.252
!
router ospf 1
 network 10.0.1.0 0.0.0.3 area 5
|} );
    ]
  in
  check_int "no-backbone flagged" 1
    (List.length (find "lint-ospf-no-backbone-area" (Rd_core.Lint.design (analyze no_backbone))));
  let single_abr =
    [
      ( "abr",
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
        {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
|} );
      ( "leaf",
        {|interface Serial0/0
 ip address 10.0.1.2 255.255.255.252
!
router ospf 1
 network 10.0.1.0 0.0.0.3 area 5
|} );
    ]
  in
  match
    find "lint-single-abr-area" (Rd_core.Lint.design ~files:single_abr (analyze single_abr))
  with
  | [ d ] -> check_bool "on the ABR, no line" true (d.file = Some "abr" && d.line = None)
  | ds -> Alcotest.failf "expected one single-ABR area, got %d" (List.length ds)

let test_design_clean_generated () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:41 ~n:20 ~index:3 () in
  let files = Rd_gen.Builder.to_texts net in
  let f = Rd_core.Lint.design ~files (Rd_core.Analysis.analyze ~name:"e" files) in
  (* a generated textbook network has no duplicate addresses and no
     unresolved next hops *)
  assert_none ~code:"lint-duplicate-address" f;
  assert_none ~code:"lint-unresolved-next-hop" f

(* ------------------------------------------------------- parse diags fold --- *)

let test_parse_diags_included () =
  let diags = lint "interface Ethernet0\n ip address 10.1.1.300 255.255.255.0\n" in
  assert_one ~code:"parse-bad-address" ~line:2 ~severity:Diag.Error diags

(* ------------------------------------------- generated networks are clean --- *)

let test_generated_networks_clean () =
  List.iter
    (fun arch ->
      let net = Rd_gen.Archetype.generate arch ~seed:11 ~n:12 ~index:1 () in
      let diags = Rd_core.Lint.lint_files ~jobs:2 (Rd_gen.Builder.to_texts net) in
      if diags <> [] then
        Alcotest.failf "generated %s network has findings: %s"
          (Rd_gen.Archetype.to_string arch)
          (Diag.to_string (List.hd diags)))
    [
      Rd_gen.Archetype.Backbone; Rd_gen.Archetype.Enterprise; Rd_gen.Archetype.Compartment;
      Rd_gen.Archetype.Restricted; Rd_gen.Archetype.Tier2; Rd_gen.Archetype.Hub_spoke;
      Rd_gen.Archetype.Igp_only;
    ]

(* ------------------------------------------------------------- rendering --- *)

let defective =
  "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n ip access-group 120 in\nrouter bgp 1\n neighbor 10.0.0.2 update-source Loopback0\n"

let test_render_and_json () =
  let diags = lint defective in
  check_bool "has errors" true (Diag.has_errors diags);
  let table = Rd_core.Lint.render diags in
  check_bool "table mentions code" true
    (String.length table > 0
    && Rd_util.Json.to_string (Rd_core.Lint.to_json diags) <> "[]");
  match Rd_core.Lint.to_json diags with
  | Rd_util.Json.List items ->
    check_int "one json item per diag" (List.length diags) (List.length items);
    List.iter
      (function
        | Rd_util.Json.Obj fields ->
          check_bool "json has code" true (List.mem_assoc "code" fields);
          check_bool "json has severity" true (List.mem_assoc "severity" fields)
        | _ -> Alcotest.fail "diag not an object")
      items
  | _ -> Alcotest.fail "lint json not a list"

let test_stable_order () =
  (* same input, same diagnostics, in line order *)
  let d1 = lint defective and d2 = lint defective in
  check_bool "deterministic" true (d1 = d2);
  let lines = List.filter_map (fun (d : Diag.t) -> d.line) d1 in
  check_bool "line-sorted" true (List.sort compare lines = lines)

let () =
  Alcotest.run "rd_lint"
    [
      ( "dangling",
        [
          Alcotest.test_case "undefined acl (access-group)" `Quick test_undefined_acl;
          Alcotest.test_case "undefined acl (distribute-list)" `Quick test_undefined_acl_distribute_list;
          Alcotest.test_case "undefined acl (route-map match)" `Quick test_undefined_acl_route_map_match;
          Alcotest.test_case "undefined route-map" `Quick test_undefined_route_map;
          Alcotest.test_case "undefined prefix-list" `Quick test_undefined_prefix_list;
          Alcotest.test_case "defined refs clean" `Quick test_defined_refs_clean;
        ] );
      ( "unused-duplicate",
        [
          Alcotest.test_case "unused acl" `Quick test_unused_acl;
          Alcotest.test_case "access-class counts as use" `Quick test_unused_acl_access_class;
          Alcotest.test_case "unused route-map" `Quick test_unused_route_map;
          Alcotest.test_case "duplicate acl" `Quick test_duplicate_acl;
          Alcotest.test_case "duplicate route-map seq" `Quick test_duplicate_route_map_seq;
        ] );
      ( "semantic",
        [
          Alcotest.test_case "neighbor without remote-as" `Quick test_neighbor_no_remote_as;
          Alcotest.test_case "neighbor with remote-as clean" `Quick test_neighbor_with_remote_as_clean;
          Alcotest.test_case "peer-group supplies remote-as" `Quick test_neighbor_peer_group_covers;
          Alcotest.test_case "peer-group without remote-as" `Quick test_neighbor_peer_group_no_remote_as;
          Alcotest.test_case "redistribute no metric" `Quick test_redistribute_no_metric;
          Alcotest.test_case "redistribute with metric clean" `Quick test_redistribute_with_metric_clean;
          Alcotest.test_case "redistribute into rip clean" `Quick test_redistribute_into_non_ospf_clean;
          Alcotest.test_case "interface overlap" `Quick test_interface_overlap;
          Alcotest.test_case "interface disjoint clean" `Quick test_interface_disjoint_clean;
        ] );
      ( "audit",
        [
          Alcotest.test_case "unfiltered peering" `Quick test_design_unfiltered_peering;
          Alcotest.test_case "filtered peering clean" `Quick test_design_filtered_peering_clean;
          Alcotest.test_case "half-covered link" `Quick test_design_half_covered_link;
          Alcotest.test_case "duplicate addresses" `Quick test_design_duplicate_addresses;
          Alcotest.test_case "unresolved next hops" `Quick test_design_unresolved_next_hop;
          Alcotest.test_case "shared static destinations" `Quick
            test_design_shared_static_destinations;
          Alcotest.test_case "warnings first" `Quick test_design_warnings_first;
          Alcotest.test_case "ospf area issues" `Quick test_design_ospf_areas;
          Alcotest.test_case "clean generated network" `Quick test_design_clean_generated;
        ] );
      ( "integration",
        [
          Alcotest.test_case "parse diags included" `Quick test_parse_diags_included;
          Alcotest.test_case "generated networks clean" `Quick test_generated_networks_clean;
          Alcotest.test_case "render and json" `Quick test_render_and_json;
          Alcotest.test_case "stable order" `Quick test_stable_order;
        ] );
    ]
