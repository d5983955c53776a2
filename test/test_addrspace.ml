(* Tests for rd_addrspace: address-block discovery and missing-router
   detection (paper §3.4). *)

open Rd_addr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let pfx = Prefix.of_string_exn

let test_discover_joins_siblings () =
  (* two /25s fill a /24 completely: joined *)
  let blocks = Rd_addrspace.Blocks.discover [ pfx "10.0.0.0/25"; pfx "10.0.0.128/25" ] in
  (match blocks with
   | [ b ] ->
     check_string "joined" "10.0.0.0/24" (Prefix.to_string b.prefix);
     check_int "used" 256 b.used_addresses;
     check_int "subnets" 2 (List.length b.subnets)
   | l -> Alcotest.failf "expected one block, got %d" (List.length l))

let test_discover_half_rule () =
  (* a lone subnet never self-expands: joining needs a pair *)
  let blocks = Rd_addrspace.Blocks.discover [ pfx "10.0.0.0/25" ] in
  (match blocks with
   | [ b ] -> check_string "lone stays" "10.0.0.0/25" (Prefix.to_string b.prefix)
   | _ -> Alcotest.fail "expected one block");
  (* two /26s at opposite ends of a /24: the enlarged /24 is exactly half
     used, which meets the "at least half" rule *)
  let blocks2 = Rd_addrspace.Blocks.discover [ pfx "10.0.0.0/26"; pfx "10.0.0.192/26" ] in
  (match blocks2 with
   | [ b ] -> check_string "half joins" "10.0.0.0/24" (Prefix.to_string b.prefix)
   | _ -> Alcotest.fail "expected one block");
  (* two /27s in a /24 are only a quarter: they stay apart *)
  let blocks3 = Rd_addrspace.Blocks.discover [ pfx "10.0.0.0/27"; pfx "10.0.0.224/27" ] in
  check_int "quarter does not join" 2 (List.length blocks3)

let test_discover_separate_blocks () =
  let blocks =
    Rd_addrspace.Blocks.discover [ pfx "10.0.0.0/24"; pfx "10.0.1.0/24"; pfx "192.168.0.0/24" ]
  in
  check_int "two blocks" 2 (List.length blocks);
  let strs = List.map (fun (b : Rd_addrspace.Blocks.block) -> Prefix.to_string b.prefix) blocks in
  Alcotest.(check (list string)) "contents" [ "10.0.0.0/23"; "192.168.0.0/24" ] strs

let test_discover_threshold () =
  (* two /30s whose common supernet (a /28) is half used: they join at
     threshold <= 0.5 and stay apart above *)
  let pair = [ pfx "10.0.0.0/30"; pfx "10.0.0.12/30" ] in
  (match Rd_addrspace.Blocks.discover ~threshold:0.5 pair with
   | [ b ] -> check_string "joins at half" "10.0.0.0/28" (Prefix.to_string b.prefix)
   | l -> Alcotest.failf "expected one block, got %d" (List.length l));
  (match Rd_addrspace.Blocks.discover ~threshold:0.25 pair with
   | [ b ] -> check_string "joins at quarter too" "10.0.0.0/28" (Prefix.to_string b.prefix)
   | l -> Alcotest.failf "expected one block, got %d" (List.length l));
  check_int "apart at 0.75" 2 (List.length (Rd_addrspace.Blocks.discover ~threshold:0.75 pair));
  (* threshold 1.0 never joins partially used supernets *)
  check_int "strict keeps apart" 2 (List.length (Rd_addrspace.Blocks.discover ~threshold:1.0 pair));
  check_bool "invalid threshold" true
    (try
       ignore (Rd_addrspace.Blocks.discover ~threshold:0.0 []);
       false
     with Invalid_argument _ -> true)

let test_discover_empty_and_dup () =
  check_int "empty" 0 (List.length (Rd_addrspace.Blocks.discover []));
  let blocks = Rd_addrspace.Blocks.discover [ pfx "10.0.0.0/24"; pfx "10.0.0.0/24" ] in
  check_int "dedup" 1 (List.length blocks)

let test_blocks_cover_subnets () =
  (* every input subnet is inside exactly one discovered block *)
  let subnets =
    [ pfx "10.0.0.0/30"; pfx "10.0.0.4/30"; pfx "10.0.1.0/24"; pfx "172.16.5.0/24"; pfx "172.16.4.0/24" ]
  in
  let blocks = Rd_addrspace.Blocks.discover subnets in
  List.iter
    (fun s ->
      let covering =
        List.filter (fun (b : Rd_addrspace.Blocks.block) -> Prefix.subset s b.prefix) blocks
      in
      check_int (Prefix.to_string s ^ " covered once") 1 (List.length covering))
    subnets

let test_subnets_of_configs () =
  let c =
    Rd_config.Parser.parse
      {|interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
!
interface Serial0/0
 ip address 10.1.0.1 255.255.255.252
!
ip route 192.168.0.0 255.255.0.0 10.1.0.2
|}
  in
  let subnets = Rd_addrspace.Blocks.subnets_of_configs [ ("r", c) ] in
  check_int "three subnets" 3 (List.length subnets)

let test_missing_router_heuristic () =
  (* Routers chain-linked over densely allocated consecutive /30s (the
     structured plan of §3.4); one interface on r0 has no matching peer —
     its router's config is "missing" — and its address falls inside the
     block the internal /30s aggregate into. *)
  let iface name addr =
    Printf.sprintf "interface %s\n ip address %s 255.255.255.252\n!\n" name addr
  in
  let routers =
    List.init 10 (fun i ->
        let own = iface "Serial0/0" (Printf.sprintf "10.0.0.%d" ((4 * i) + 1)) in
        let back =
          if i = 0 then "" else iface "Serial0/1" (Printf.sprintf "10.0.0.%d" ((4 * (i - 1)) + 2))
        in
        let extra =
          if i = 0 then iface "Serial0/2" "10.0.0.41" (* /30 at 10.0.0.40, peer absent *)
          else ""
        in
        (Printf.sprintf "r%d" i, Rd_config.Parser.parse (own ^ back ^ extra)))
  in
  let topo = Rd_topo.Topology.build routers in
  let blocks =
    Rd_addrspace.Blocks.discover (Rd_addrspace.Blocks.subnets_of_configs routers)
  in
  let suspects = Rd_addrspace.Blocks.suspect_missing_routers topo blocks in
  check_bool "found suspect" true (List.length suspects >= 1);
  let s = List.hd suspects in
  check_string "the unmatched iface" "Serial0/2" s.iface.name

let test_render () =
  let blocks = Rd_addrspace.Blocks.discover [ pfx "10.0.0.0/24" ] in
  let s = Rd_addrspace.Blocks.render blocks in
  check_bool "rendered" true (String.length s > 0)

let () =
  Alcotest.run "rd_addrspace"
    [
      ( "blocks",
        [
          Alcotest.test_case "joins siblings" `Quick test_discover_joins_siblings;
          Alcotest.test_case "half-usage rule" `Quick test_discover_half_rule;
          Alcotest.test_case "separate blocks" `Quick test_discover_separate_blocks;
          Alcotest.test_case "threshold sweep" `Quick test_discover_threshold;
          Alcotest.test_case "empty and duplicates" `Quick test_discover_empty_and_dup;
          Alcotest.test_case "blocks cover subnets" `Quick test_blocks_cover_subnets;
          Alcotest.test_case "subnets of configs" `Quick test_subnets_of_configs;
          Alcotest.test_case "missing-router heuristic" `Quick test_missing_router_heuristic;
          Alcotest.test_case "render" `Quick test_render;
        ] );
    ]
