open Rd_addr
open Rd_config

let protocol_weights = [ (0.58, Ast.Eigrp); (0.36, Ast.Ospf); (0.06, Ast.Rip) ]

(* Staging (customer-facing) instances skew OSPF-heavy: Table 1 shows OSPF
   as the dominant inter-domain IGP (1161 inter instances vs EIGRP's 156
   and RIP's 161). *)
let staging_weights = [ (0.72, Ast.Ospf); (0.10, Ast.Eigrp); (0.18, Ast.Rip) ]

let rare_kinds =
  [
    (12.0, "TokenRing");
    (11.0, "Dialer");
    (10.0, "BRI");
    (2.0, "Tunnel");
    (1.5, "Port-channel");
    (0.9, "Async");
    (0.8, "Virtual-Template");
    (0.5, "Channel");
    (0.15, "CBR");
    (0.06, "Fddi");
    (0.04, "Multilink");
    (0.02, "Null");
  ]

let rare_interfaces net d =
  let rng = Builder.prng net in
  (* About one router in four carries legacy/auxiliary interfaces. *)
  if Rd_util.Prng.bernoulli rng 0.25 then begin
    for _ = 1 to 1 + Rd_util.Prng.int rng 2 do
      let kind = Rd_util.Prng.weighted rng rare_kinds in
      if kind = "Null" then ignore (Device.add_interface d ~kind ())
      else begin
        let subnet = Addr_plan.lan (Builder.plan net) in
        let addr = Prefix.nth subnet 1 in
        ignore (Device.add_interface d ~kind ~addr:(addr, Prefix.netmask subnet) ())
      end
    done
  end

(* A rare legacy pattern the paper quantifies (528 of 96,487 interfaces):
   serial interfaces borrowing another interface's address. *)
let unnumbered_interface net d =
  let rng = Builder.prng net in
  if Rd_util.Prng.bernoulli rng 0.065 then begin
    let a = Addr_plan.loopback (Builder.plan net) in
    let anchor = Device.add_interface d ~kind:"Loopback" ~addr:(a, Ipv4.broadcast_all) () in
    ignore (Device.add_interface d ~kind:"Serial" ~p2p:true ~unnumbered:anchor ())
  end

let mgmt_instance ?(p = 0.55) net d =
  let rng = Builder.prng net in
  if Rd_util.Prng.bernoulli rng p then begin
    let proto = Rd_util.Prng.weighted rng protocol_weights in
    let kind = if Rd_util.Prng.bernoulli rng 0.8 then "FastEthernet" else "Ethernet" in
    let subnet, _addr = Builder.lan net ~kind d in
    match proto with
    | Ast.Ospf -> Builder.ospf_cover d ~pid:(900 + Rd_util.Prng.int rng 64) ~area:0 subnet
    | Ast.Eigrp -> Builder.eigrp_cover d ~asn:(900 + Rd_util.Prng.int rng 64) subnet
    | Ast.Rip -> Builder.rip_cover d subnet
    | Ast.Igrp | Ast.Bgp | Ast.Isis -> ()
  end

(* RFC-style bogon list: an edge anti-spoofing filter denies packets
   claiming to come from reserved space or from the network's own block
   (RFC 2267, cited by the paper as the conventional wisdom). *)
let bogons =
  List.map Prefix.of_string_exn
    [
      "0.0.0.0/8"; "10.0.0.0/8"; "127.0.0.0/8"; "169.254.0.0/16"; "172.16.0.0/12";
      "192.0.2.0/24"; "192.168.0.0/16"; "198.18.0.0/15"; "224.0.0.0/4"; "240.0.0.0/4";
    ]

let edge_filter ?(extra = 0) net d ~name ~internal_block =
  (* [extra] adds customer-prefix permit clauses, the way provider edges
     whitelist the routes/sources they expect — this is what makes a
     network's filtering edge-heavy in Figure 11 terms. *)
  let rng = Builder.prng net in
  let customers =
    List.init extra (fun _ ->
        let a =
          Ipv4.of_octets (Rd_util.Prng.int_in rng 11 223) (Rd_util.Prng.int rng 256)
            (Rd_util.Prng.int rng 256) 0
        in
        (Ast.Permit, Prefix.make a 24))
  in
  Builder.std_acl d ~name
    ((Ast.Deny, internal_block)
     :: List.map (fun b -> (Ast.Deny, b)) bogons
    @ customers
    @ [ (Ast.Permit, Prefix.default) ])

let mgmt_instances net d ~tries =
  for _ = 1 to tries do
    mgmt_instance net d
  done

let blockable_ports = [| 135; 137; 139; 445; 1433; 1434; 161; 69; 514; 2049; 111; 512; 513 |]
let blockable_protos = [| "pim"; "igmp"; "gre" |]
let well_known_ports = [| 80; 443; 22; 23; 25 |]

let internal_filter net d ~name ?(clauses = 6) () =
  let rng = Builder.prng net in
  let mk_port_clause () =
    let port = Rd_util.Prng.choice rng blockable_ports in
    let proto = if Rd_util.Prng.bool rng then "tcp" else "udp" in
    {
      Ast.clause_action = Ast.Deny;
      src = Wildcard.any;
      ip_proto = Some proto;
      dst = Some Wildcard.any;
      src_port = None;
      dst_port = Some (Ast.Port_eq port);
    }
  in
  let mk_proto_clause () =
    {
      Ast.clause_action = Ast.Deny;
      src = Wildcard.any;
      ip_proto = Some (Rd_util.Prng.choice rng blockable_protos);
      dst = Some Wildcard.any;
      src_port = None;
      dst_port = None;
    }
  in
  let mk_host_clause () =
    (* a /24 somewhere in the network's space: filter clauses reference
       address space without consuming the allocator *)
    let block = Addr_plan.block (Builder.plan net) in
    let count = max 1 (Prefix.size block / 256) in
    let subnet = Prefix.make (Prefix.nth block (256 * Rd_util.Prng.int rng count)) 24 in
    {
      Ast.clause_action = (if Rd_util.Prng.bernoulli rng 0.5 then Ast.Permit else Ast.Deny);
      src = Wildcard.of_prefix subnet;
      ip_proto = Some "tcp";
      dst = Some Wildcard.any;
      src_port = None;
      dst_port = Some (Ast.Port_eq (Rd_util.Prng.choice rng well_known_ports));
    }
  in
  let body =
    List.init (max 1 (clauses - 1)) (fun _ ->
        match Rd_util.Prng.int rng 3 with
        | 0 -> mk_port_clause ()
        | 1 -> mk_proto_clause ()
        | _ -> mk_host_clause ())
  in
  let catch_all =
    {
      Ast.clause_action = Ast.Permit;
      src = Wildcard.any;
      ip_proto = Some "ip";
      dst = Some Wildcard.any;
      src_port = None;
      dst_port = None;
    }
  in
  Device.add_acl d { Ast.acl_name = name; extended = true; clauses = body @ [ catch_all ] }

let apply_filter_to_lan net d ~acl ~kind =
  ignore (Builder.lan net ~kind ~acl_in:acl d)
