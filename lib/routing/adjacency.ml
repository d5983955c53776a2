open Rd_addr
open Rd_config

type kind = Igp of Prefix.t | Ibgp | Ebgp

type t = { a : int; b : int; kind : kind }

type external_peering = {
  proc : int;
  local_asn : int option;
  remote_asn : int;
  peer_addr : Ipv4.t;
}

type result = {
  adjacencies : t list;
  external_peerings : external_peering list;
  igp_external_edges : (int * Prefix.t) list;
}

let strict_ospf_area = ref true

let mk a b kind = if a < b then { a; b; kind } else { a = b; b = a; kind }

let same_igp_instance_params (p : Process.t) (q : Process.t) =
  match p.protocol with
  | Ast.Ospf | Ast.Rip -> true (* process ids are router-local (§3.2) *)
  | Ast.Eigrp | Ast.Igrp ->
    (* EIGRP/IGRP adjacency requires equal AS numbers on both routers. *)
    p.proc_id = q.proc_id
  | Ast.Isis -> true
  | Ast.Bgp -> false

let igp_adjacencies (catalog : Process.catalog) =
  let topo = catalog.topo in
  (* Per-process passive-interface lookup, hashed once instead of a
     List.mem scan per endpoint pair. *)
  let passive_ifaces =
    Array.map
      (fun (p : Process.t) ->
        let tbl = Hashtbl.create (max 1 (List.length p.ast.passive_interfaces)) in
        List.iter (fun name -> Hashtbl.replace tbl name ()) p.ast.passive_interfaces;
        tbl)
      catalog.processes
  in
  let covering_procs (endpoint : Rd_topo.Topology.iface) =
    List.filter_map
      (fun (p : Process.t) ->
        (* a passive interface advertises its subnet but forms no
           adjacency *)
        if p.protocol <> Ast.Bgp && not (Hashtbl.mem passive_ifaces.(p.pid) endpoint.name) then
          Option.map (fun (a, _) -> (p, a)) endpoint.address
        else None)
      (Process.covering catalog endpoint)
  in
  let acc = ref [] in
  List.iter
    (fun (link : Rd_topo.Topology.link) ->
      (* covering processes once per endpoint, not once per pair *)
      let ends = List.map (fun e -> (e, covering_procs e)) link.endpoints in
      let rec pairs = function
        | [] -> ()
        | ((e1 : Rd_topo.Topology.iface), covs1) :: rest ->
          List.iter
            (fun ((e2 : Rd_topo.Topology.iface), covs2) ->
              if e1.router <> e2.router then
                List.iter
                  (fun ((p, pa) : Process.t * Ipv4.t) ->
                    List.iter
                      (fun ((q, qa) : Process.t * Ipv4.t) ->
                        if p.protocol = q.protocol && same_igp_instance_params p q then begin
                          let area_ok =
                            (not !strict_ospf_area)
                            || p.protocol <> Ast.Ospf
                            || Process.area_on p pa = Process.area_on q qa
                          in
                          if area_ok then
                            acc := mk p.pid q.pid (Igp link.subnet_of_link) :: !acc
                        end)
                      covs2)
                  covs1)
            rest;
          pairs rest
      in
      pairs ends)
    topo.links;
  !acc

let bgp_adjacencies (catalog : Process.catalog) =
  let adjacencies = ref [] in
  let externals = ref [] in
  Array.iter
    (fun (p : Process.t) ->
      if p.protocol = Ast.Bgp then
        List.iter
          (fun (n : Ast.neighbor) ->
            match Process.find_by_peer_addr catalog n.peer with
            | Some q ->
              (* Internal peer: count the session once, from the lower pid.
                 Verify the remote side agrees (it should name an address
                 of p's router and p's ASN); tolerate asymmetry by trusting
                 the local statement. *)
              if p.pid < q.pid then begin
                let kind = if Process.bgp_asn p = Process.bgp_asn q then Ibgp else Ebgp in
                adjacencies := mk p.pid q.pid kind :: !adjacencies
              end
            | None ->
              externals :=
                {
                  proc = p.pid;
                  local_asn = Process.bgp_asn p;
                  remote_asn = n.remote_as;
                  peer_addr = n.peer;
                }
                :: !externals)
          p.ast.neighbors)
    catalog.processes;
  (!adjacencies, !externals)

let igp_external (catalog : Process.catalog) =
  let topo = catalog.topo in
  let acc = ref [] in
  Array.iter
    (fun (i : Rd_topo.Topology.iface) ->
      match (i.subnet, Rd_topo.Topology.facing_of topo i.router i.if_index) with
      | Some s, Rd_topo.Topology.External ->
        List.iter
          (fun (p : Process.t) -> if p.protocol <> Ast.Bgp then acc := (p.pid, s) :: !acc)
          (Process.covering catalog i)
      | _ -> ())
    topo.ifaces;
  !acc

let dedup_adjacencies l =
  let tbl = Hashtbl.create 256 in
  List.filter
    (fun { a; b; kind } ->
      let key = (a, b, match kind with Igp p -> Rd_addr.Prefix.to_string p | Ibgp -> "i" | Ebgp -> "e") in
      if Hashtbl.mem tbl key then false
      else begin
        Hashtbl.replace tbl key ();
        true
      end)
    l

let compute catalog =
  let igp = igp_adjacencies catalog in
  let bgp, externals = bgp_adjacencies catalog in
  {
    adjacencies = dedup_adjacencies (igp @ bgp);
    external_peerings = externals;
    igp_external_edges = igp_external catalog;
  }
