open Rd_addr
open Rd_config

type net = {
  rng : Rd_util.Prng.t;
  plan_ : Addr_plan.t;
  ext_plan_ : Addr_plan.t;
  mutable routers_rev : Device.t list;
  mutable count : int;
}

let create ~seed ~block ~ext_block =
  {
    rng = Rd_util.Prng.create seed;
    plan_ = Addr_plan.create block;
    ext_plan_ = Addr_plan.create ext_block;
    routers_rev = [];
    count = 0;
  }

let prng t = t.rng
let plan t = t.plan_
let ext_plan t = t.ext_plan_

let add_router t name =
  let d = Device.create name in
  t.routers_rev <- d :: t.routers_rev;
  t.count <- t.count + 1;
  d

let routers t = List.rev t.routers_rev
let router_count t = t.count

let mask_of p = Prefix.netmask p

let link t ?(kind = "Serial") ?plan a b =
  let plan = Option.value plan ~default:t.plan_ in
  let subnet = Addr_plan.p2p plan in
  let addr_a = Prefix.nth subnet 1 and addr_b = Prefix.nth subnet 2 in
  let m = mask_of subnet in
  let extras () = Texture.iface_extras t.rng ~kind in
  ignore
    (Device.add_interface a ~kind ~p2p:true ~addr:(addr_a, m) ~extras:(extras ())
       ~description:(Printf.sprintf "link to %s" (Device.name b)) ());
  ignore
    (Device.add_interface b ~kind ~p2p:true ~addr:(addr_b, m) ~extras:(extras ())
       ~description:(Printf.sprintf "link to %s" (Device.name a)) ());
  (subnet, addr_a, addr_b)

let lan t ?(kind = "FastEthernet") ?plan ?acl_in d =
  let plan = Option.value plan ~default:t.plan_ in
  let subnet = Addr_plan.lan plan in
  let addr = Prefix.nth subnet 1 in
  ignore
    (Device.add_interface d ~kind ~addr:(addr, mask_of subnet) ?acl_in
       ~extras:(Texture.iface_extras t.rng ~kind) ());
  (subnet, addr)

let multi_lan t ds =
  let subnet = Addr_plan.lan t.plan_ in
  let addrs =
    List.mapi
      (fun i d ->
        let addr = Prefix.nth subnet (i + 1) in
        ignore (Device.add_interface d ~kind:"FastEthernet" ~addr:(addr, mask_of subnet) ());
        addr)
      ds
  in
  (subnet, addrs)

let external_link t ?(kind = "Serial") ?acl_in d =
  let subnet = Addr_plan.p2p t.ext_plan_ in
  let local = Prefix.nth subnet 1 and remote = Prefix.nth subnet 2 in
  ignore
    (Device.add_interface d ~kind ~p2p:true ~addr:(local, mask_of subnet) ?acl_in
       ~extras:(Texture.iface_extras t.rng ~kind) ());
  (subnet, local, remote)

let loopback t d =
  let a = Addr_plan.loopback t.plan_ in
  ignore (Device.add_interface d ~kind:"Loopback" ~addr:(a, Ipv4.broadcast_all) ());
  a

(* --- process helpers --------------------------------------------------- *)

let add_network d protocol proc_id stmt =
  Device.update_process d protocol proc_id (fun p ->
      { p with Ast.networks = stmt :: p.networks })

let ospf_cover d ~pid ?(area = 0) subnet =
  add_network d Ast.Ospf (Some pid)
    (Ast.Net_wildcard (Wildcard.of_prefix subnet, Some area))

let eigrp_cover d ~asn subnet =
  add_network d Ast.Eigrp (Some asn) (Ast.Net_wildcard (Wildcard.of_prefix subnet, None))

let rip_cover d subnet = add_network d Ast.Rip None (Ast.Net_classful (Prefix.addr subnet))

let bgp_neighbor d ~asn ~peer ~remote_as ?dlist_in ?dlist_out ?pl_in ?(rr_client = false) () =
  Device.update_process d Ast.Bgp (Some asn) (fun p ->
      let n = Ast.empty_neighbor peer remote_as in
      let n =
        {
          n with
          Ast.nb_dlists =
            (match dlist_in with Some a -> [ (a, Ast.In) ] | None -> [])
            @ (match dlist_out with Some a -> [ (a, Ast.Out) ] | None -> []);
          nb_prefix_lists = (match pl_in with Some a -> [ (a, Ast.In) ] | None -> []);
          route_reflector_client = rr_client;
        }
      in
      { p with Ast.neighbors = n :: p.neighbors })

let prefix_list d ~name entries =
  Device.add_prefix_list d
    {
      Ast.pl_name = name;
      pl_entries =
        List.mapi
          (fun i (action, p, le) ->
            {
              Ast.pl_seq = 5 * (i + 1);
              pl_action = action;
              pl_prefix = p;
              pl_ge = None;
              pl_le = le;
            })
          entries;
    }

let bgp_network d ~asn subnet = add_network d Ast.Bgp (Some asn) (Ast.Net_mask subnet)

let bgp_aggregate d ~asn ?(summary_only = false) subnet =
  Device.update_process d Ast.Bgp (Some asn) (fun p ->
      { p with Ast.aggregates = (subnet, summary_only) :: p.aggregates })

let redistribute d ~into:(protocol, proc_id) ~src ?route_map ?metric ?(subnets = false) () =
  Device.update_process d protocol proc_id (fun p ->
      {
        p with
        Ast.redistributes =
          { Ast.source = src; metric; metric_type = None; route_map; subnets }
          :: p.redistributes;
      })

let std_acl d ~name clauses =
  Device.add_acl d
    {
      (* match the parser's convention: extended-range numbers are flagged
         extended even when the clauses are standard-form *)
      Ast.acl_name = name;
      extended = Ast.is_extended_number name;
      clauses =
        List.map
          (fun (action, p) ->
            {
              Ast.clause_action = action;
              src = Wildcard.of_prefix p;
              ip_proto = None;
              dst = None;
              src_port = None;
              dst_port = None;
            })
          clauses;
    }

let acl_permit_any d ~name =
  Device.add_acl d
    {
      Ast.acl_name = name;
      extended = Ast.is_extended_number name;
      clauses =
        [
          {
            Ast.clause_action = Ast.Permit;
            src = Wildcard.any;
            ip_proto = None;
            dst = None;
            src_port = None;
            dst_port = None;
          };
        ];
    }

let route_map_prefixes d ~name ~acl ?set_tag action =
  Device.add_route_map d
    {
      Ast.rm_name = name;
      entries =
        [
          {
            Ast.seq = 10;
            rm_action = action;
            match_acls = [ acl ];
            match_prefix_lists = [];
            match_tags = [];
            set_tag;
            set_metric = None;
            set_local_pref = None;
          };
        ];
    }

let to_configs t = List.map (fun d -> (Device.name d, Device.to_ast d)) (routers t)

let to_texts t =
  List.map
    (fun (name, ast) ->
      let header = Texture.boilerplate t.rng ~hostname:name in
      let footer = Texture.boilerplate_footer t.rng in
      (name, header ^ Rd_config.Printer.to_string ast ^ footer))
    (to_configs t)
