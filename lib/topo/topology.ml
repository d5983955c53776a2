open Rd_addr

type iface = {
  router : int;
  if_index : int;
  name : string;
  itype : Itype.t;
  address : (Ipv4.t * Ipv4.t) option;
  subnet : Prefix.t option;
  unnumbered : bool;
}

type facing = Internal | External

type link = { subnet_of_link : Prefix.t; endpoints : iface list; multipoint : bool }

type t = {
  routers : (string * Rd_config.Ast.t) array;
  ifaces : iface array;
  links : link list;
  facing : (int * int, facing) Hashtbl.t;
  internal_addresses : Prefix_set.t;
  unnumbered_count : int;
  total_interfaces : int;
}

let iface_of_ast router if_index (i : Rd_config.Ast.interface) =
  let subnet =
    match i.if_address with
    | Some (a, m) -> Prefix.of_addr_mask a m
    | None -> None
  in
  {
    router;
    if_index;
    name = i.if_name;
    itype = Itype.of_interface_name i.if_name;
    address = i.if_address;
    subnet;
    unnumbered = i.unnumbered <> None;
  }

let build routers_list =
  let routers = Array.of_list routers_list in
  let ifaces = ref [] in
  let total_interfaces = ref 0 in
  let unnumbered_count = ref 0 in
  Array.iteri
    (fun ri (_, (cfg : Rd_config.Ast.t)) ->
      List.iteri
        (fun ii (i : Rd_config.Ast.interface) ->
          incr total_interfaces;
          if i.unnumbered <> None then incr unnumbered_count;
          if not i.shutdown then ifaces := iface_of_ast ri ii i :: !ifaces)
        cfg.interfaces)
    routers;
  let ifaces = Array.of_list (List.rev !ifaces) in
  (* Group interfaces by subnet. *)
  let by_subnet : (Prefix.t, iface list) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun i ->
      match i.subnet with
      | Some p when Itype.is_physical i.itype ->
        let cur = try Hashtbl.find by_subnet p with Not_found -> [] in
        Hashtbl.replace by_subnet p (i :: cur)
      | _ -> ())
    ifaces;
  (* Every configured address, loopbacks included, is "inside the network". *)
  let internal_addresses =
    Array.to_list ifaces
    |> List.filter_map (fun i -> Option.map (fun (a, _) -> Prefix.host a) i.address)
    |> Prefix_set.of_prefixes
  in
  (* Candidate external next-hops: static-route next hops and BGP neighbor
     addresses that are not any internal interface address. *)
  let foreign_next_hops = ref [] in
  Array.iter
    (fun (_, (cfg : Rd_config.Ast.t)) ->
      List.iter
        (fun (s : Rd_config.Ast.static_route) ->
          match s.sr_next_hop with
          | Rd_config.Ast.Nh_addr a ->
            if not (Prefix_set.mem a internal_addresses) then
              foreign_next_hops := a :: !foreign_next_hops
          | Rd_config.Ast.Nh_iface _ -> ())
        cfg.statics;
      List.iter
        (fun (p : Rd_config.Ast.router_process) ->
          List.iter
            (fun (n : Rd_config.Ast.neighbor) ->
              if not (Prefix_set.mem n.peer internal_addresses) then
                foreign_next_hops := n.peer :: !foreign_next_hops)
            p.neighbors)
        cfg.processes)
    routers;
  (* Sorted once, so each multipoint link asks "is any foreign next hop
     inside [network, broadcast]?" with one binary search. *)
  let foreign_next_hops = Array.of_list (List.map Ipv4.to_int !foreign_next_hops) in
  Array.sort Int.compare foreign_next_hops;
  let has_foreign_next_hop subnet =
    let lo = Ipv4.to_int (Prefix.network subnet) in
    let rec first_at_least l h =
      if l >= h then l
      else begin
        let m = (l + h) / 2 in
        if foreign_next_hops.(m) < lo then first_at_least (m + 1) h else first_at_least l m
      end
    in
    let n = Array.length foreign_next_hops in
    let i = first_at_least 0 n in
    i < n && foreign_next_hops.(i) <= Ipv4.to_int (Prefix.broadcast subnet)
  in
  (* Build links and classify facing. *)
  let facing = Hashtbl.create 1024 in
  let links = ref [] in
  Hashtbl.iter
    (fun subnet endpoints ->
      let multipoint = Prefix.len subnet < 30 in
      let classification =
        if not multipoint then begin
          (* Point-to-point /30 or /31: internal iff both addresses are
             found in the configuration files (§5.2). *)
          if List.length endpoints >= 2 then Internal else External
        end
        else if has_foreign_next_hop subnet then
          (* Multipoint: only next-hop evidence of an external router makes
             the link external; a lone interface on a /24 is a host LAN. *)
          External
        else Internal
      in
      List.iter
        (fun i -> Hashtbl.replace facing (i.router, i.if_index) classification)
        endpoints;
      links := { subnet_of_link = subnet; endpoints; multipoint } :: !links)
    by_subnet;
  (* Loopbacks and other non-physical interfaces are internal. *)
  Array.iter
    (fun i ->
      if not (Hashtbl.mem facing (i.router, i.if_index)) then
        Hashtbl.replace facing (i.router, i.if_index) Internal)
    ifaces;
  {
    routers;
    ifaces;
    links = !links;
    facing;
    internal_addresses;
    unnumbered_count = !unnumbered_count;
    total_interfaces = !total_interfaces;
  }

let facing_of t router if_index =
  try Hashtbl.find t.facing (router, if_index) with Not_found -> Internal

let external_interfaces t =
  Array.to_list t.ifaces
  |> List.filter (fun i -> facing_of t i.router i.if_index = External)

let router_links t ri =
  List.filter (fun l -> List.exists (fun e -> e.router = ri) l.endpoints) t.links

let adjacency_pairs t =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun l ->
      let routers = List.sort_uniq Int.compare (List.map (fun e -> e.router) l.endpoints) in
      let rec pairs = function
        | [] -> ()
        | x :: rest ->
          List.iter (fun y -> Hashtbl.replace seen (x, y) ()) rest;
          pairs rest
      in
      pairs routers)
    t.links;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let interface_census t =
  let counts = Hashtbl.create 32 in
  Array.iter
    (fun (_, (cfg : Rd_config.Ast.t)) ->
      List.iter
        (fun (i : Rd_config.Ast.interface) ->
          let ty = Itype.of_interface_name i.if_name in
          let cur = try Hashtbl.find counts ty with Not_found -> 0 in
          Hashtbl.replace counts ty (cur + 1))
        cfg.interfaces)
    t.routers;
  Hashtbl.fold (fun ty n acc -> (ty, n) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> Int.compare a b)

let router_index t name =
  let found = ref None in
  Array.iteri
    (fun i (file, (cfg : Rd_config.Ast.t)) ->
      if !found = None && (file = name || cfg.hostname = Some name) then found := Some i)
    t.routers;
  !found
