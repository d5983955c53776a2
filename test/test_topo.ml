(* Tests for rd_topo: interface typing, link inference, facing
   classification. *)

open Rd_addr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------------------------------------------------------------- itype --- *)

let test_itype_names () =
  let cases =
    [
      ("Serial1/0.5", "Serial");
      ("FastEthernet0/1", "FastEthernet");
      ("Ethernet0", "Ethernet");
      ("GigabitEthernet2/0", "GigabitEthernet");
      ("Hssi2/0", "Hssi");
      ("POS1/0", "POS");
      ("ATM3/0.100", "ATM");
      ("TokenRing0", "TokenRing");
      ("Loopback0", "Loopback");
      ("Tunnel12", "Tunnel");
      ("BRI0", "BRI");
      ("Dialer1", "Dialer");
      ("Port-channel1", "Port");
      ("Null0", "Null");
      ("Fddi0", "Fddi");
      ("Multilink1", "Multilink");
      ("CBR0/0", "CBR");
      ("Vlan100", "Vlan");
    ]
  in
  List.iter
    (fun (name, expect) ->
      check_string name expect (Rd_topo.Itype.to_string (Rd_topo.Itype.of_interface_name name)))
    cases

let test_itype_unknown () =
  match Rd_topo.Itype.of_interface_name "Wormhole3/0" with
  | Rd_topo.Itype.Other s -> check_string "alpha prefix" "Wormhole" s
  | _ -> Alcotest.fail "expected Other"

let test_itype_physical () =
  check_bool "loopback" false (Rd_topo.Itype.is_physical Rd_topo.Itype.Loopback);
  check_bool "null" false (Rd_topo.Itype.is_physical Rd_topo.Itype.Null);
  check_bool "serial" true (Rd_topo.Itype.is_physical Rd_topo.Itype.Serial)

(* ------------------------------------------------------------- topology --- *)

let cfg text = Rd_config.Parser.parse text

let two_router_pair =
  [
    ( "r1",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
|} );
    ( "r2",
      cfg
        {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
interface Serial0/1
 ip address 10.9.0.1 255.255.255.252
|} );
  ]

(* distinct unordered pairs of routers that share at least one link *)
let router_pairs (t : Rd_topo.Topology.t) =
  List.concat_map
    (fun (l : Rd_topo.Topology.link) ->
      let rs =
        List.sort_uniq Int.compare
          (List.map (fun (e : Rd_topo.Topology.iface) -> e.router) l.endpoints)
      in
      List.concat_map (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) rs) rs)
    t.links
  |> List.sort_uniq compare

let test_link_inference () =
  let t = Rd_topo.Topology.build two_router_pair in
  check_int "links" 3 (List.length t.links);
  let internal_link =
    List.find
      (fun (l : Rd_topo.Topology.link) -> Prefix.to_string l.subnet_of_link = "10.0.0.0/30")
      t.links
  in
  check_int "two endpoints" 2 (List.length internal_link.endpoints);
  check_bool "not multipoint" false internal_link.multipoint;
  check_int "adjacency pairs" 1 (List.length (router_pairs t))

let test_facing_rules () =
  let t = Rd_topo.Topology.build two_router_pair in
  (* matched /30: internal on both ends *)
  check_bool "matched p2p internal" true
    (Rd_topo.Topology.facing_of t 0 0 = Rd_topo.Topology.Internal);
  (* lone /30 on r2: external *)
  check_bool "unmatched p2p external" true
    (Rd_topo.Topology.facing_of t 1 1 = Rd_topo.Topology.External);
  (* lone Ethernet /24 with no foreign next hops: a host LAN, internal *)
  check_bool "lone LAN internal" true
    (Rd_topo.Topology.facing_of t 0 1 = Rd_topo.Topology.Internal);
  check_int "external census" 1 (List.length (Rd_topo.Topology.external_interfaces t))

let test_multipoint_next_hop_rule () =
  (* a /24 whose addresses serve as next hop for a static route pointing at
     an address we do not own: external (the paper's DMZ case) *)
  let routers =
    [
      ( "r1",
        cfg
          {|interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
!
ip route 0.0.0.0 0.0.0.0 10.5.0.254
|} );
    ]
  in
  let t = Rd_topo.Topology.build routers in
  check_bool "dmz external" true (Rd_topo.Topology.facing_of t 0 0 = Rd_topo.Topology.External)

let test_multipoint_internal_next_hop () =
  (* next hop owned by another router in the set: stays internal *)
  let routers =
    [
      ( "r1",
        cfg
          {|interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
!
ip route 10.99.0.0 255.255.0.0 10.5.0.2
|} );
      ( "r2",
        cfg {|interface Ethernet0
 ip address 10.5.0.2 255.255.255.0
|} );
    ]
  in
  let t = Rd_topo.Topology.build routers in
  check_bool "lan stays internal" true
    (Rd_topo.Topology.facing_of t 0 0 = Rd_topo.Topology.Internal)

let test_bgp_peer_marks_external () =
  let routers =
    [
      ( "r1",
        cfg
          {|interface Serial0/0
 ip address 192.0.2.1 255.255.255.252
!
router bgp 65000
 neighbor 192.0.2.2 remote-as 7018
|} );
    ]
  in
  let t = Rd_topo.Topology.build routers in
  check_bool "peer link external" true
    (Rd_topo.Topology.facing_of t 0 0 = Rd_topo.Topology.External)

let test_multipoint_lan_three_routers () =
  let iface addr = Printf.sprintf "interface FastEthernet0/0\n ip address %s 255.255.255.0\n" addr in
  let routers =
    [ ("a", cfg (iface "10.7.0.1")); ("b", cfg (iface "10.7.0.2")); ("c", cfg (iface "10.7.0.3")) ]
  in
  let t = Rd_topo.Topology.build routers in
  check_int "one link" 1 (List.length t.links);
  let l = List.hd t.links in
  check_bool "multipoint" true l.multipoint;
  check_int "endpoints" 3 (List.length l.endpoints);
  check_int "pairs" 3 (List.length (router_pairs t))

let test_shutdown_and_unnumbered () =
  let routers =
    [
      ( "r1",
        cfg
          {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
 shutdown
!
interface Serial0/1
 ip unnumbered Serial0/0
|} );
      ("r2", cfg {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
|}) ;
    ]
  in
  let t = Rd_topo.Topology.build routers in
  check_int "unnumbered counted" 1 t.unnumbered_count;
  check_int "total includes all" 3 t.total_interfaces;
  (* the shutdown interface does not form a link, so r2's end is external *)
  check_bool "peer of shutdown is external" true
    (Rd_topo.Topology.facing_of t 1 0 = Rd_topo.Topology.External)

let test_census () =
  let t = Rd_topo.Topology.build two_router_pair in
  let census = Rd_topo.Topology.interface_census t in
  let serials = List.assoc Rd_topo.Itype.Serial census in
  check_int "serials" 3 serials;
  check_int "ethernets" 1 (List.assoc Rd_topo.Itype.Ethernet census)

let test_router_index () =
  let t = Rd_topo.Topology.build two_router_pair in
  check_bool "by file name" true (Rd_topo.Topology.router_index t "r2" = Some 1);
  check_bool "missing" true (Rd_topo.Topology.router_index t "zzz" = None);
  let with_hostname =
    [ ("fileA", cfg "hostname coreswitch\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n") ]
  in
  let t2 = Rd_topo.Topology.build with_hostname in
  check_bool "by hostname" true (Rd_topo.Topology.router_index t2 "coreswitch" = Some 0)

let test_internal_addresses () =
  let t = Rd_topo.Topology.build two_router_pair in
  check_bool "contains own" true
    (Prefix_set.mem (Ipv4.of_string_exn "10.0.0.1") t.internal_addresses);
  check_bool "not others" false
    (Prefix_set.mem (Ipv4.of_string_exn "10.0.0.3") t.internal_addresses);
  Alcotest.(check (list string))
    "exactly the configured hosts"
    [ "10.0.0.1/32"; "10.0.0.2/32"; "10.1.0.1/32"; "10.9.0.1/32" ]
    (List.map Prefix.to_string (Prefix_set.to_prefixes t.internal_addresses))

(* A foreign next hop makes a multipoint link external exactly when it
   lies in [network, broadcast]: the ends count, the neighbours do not. *)
let test_multipoint_next_hop_bounds () =
  let facing next_hop =
    let routers =
      [
        ( "r1",
          cfg
            (Printf.sprintf
               {|interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
!
interface Ethernet1
 ip address 10.7.0.1 255.255.255.0
!
ip route 0.0.0.0 0.0.0.0 %s
|}
               next_hop) );
      ]
    in
    let t = Rd_topo.Topology.build routers in
    Rd_topo.Topology.facing_of t 0 0 = Rd_topo.Topology.External
  in
  check_bool "network address" true (facing "10.5.0.0");
  check_bool "broadcast address" true (facing "10.5.0.255");
  check_bool "just below" false (facing "10.4.255.255");
  check_bool "just above" false (facing "10.5.1.0");
  check_bool "other LAN" false (facing "10.7.0.9")

let () =
  Alcotest.run "rd_topo"
    [
      ( "itype",
        [
          Alcotest.test_case "name classification" `Quick test_itype_names;
          Alcotest.test_case "unknown kinds" `Quick test_itype_unknown;
          Alcotest.test_case "physicality" `Quick test_itype_physical;
        ] );
      ( "topology",
        [
          Alcotest.test_case "link inference" `Quick test_link_inference;
          Alcotest.test_case "facing rules" `Quick test_facing_rules;
          Alcotest.test_case "multipoint next-hop rule" `Quick test_multipoint_next_hop_rule;
          Alcotest.test_case "multipoint internal next hop" `Quick test_multipoint_internal_next_hop;
          Alcotest.test_case "bgp peer marks external" `Quick test_bgp_peer_marks_external;
          Alcotest.test_case "three-router LAN" `Quick test_multipoint_lan_three_routers;
          Alcotest.test_case "shutdown and unnumbered" `Quick test_shutdown_and_unnumbered;
          Alcotest.test_case "interface census" `Quick test_census;
          Alcotest.test_case "router lookup" `Quick test_router_index;
          Alcotest.test_case "internal address set" `Quick test_internal_addresses;
          Alcotest.test_case "multipoint next-hop bounds" `Quick test_multipoint_next_hop_bounds;
        ] );
    ]
