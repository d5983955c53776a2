open Rd_addr
open Rd_config

type t = {
  pid : int;
  router : int;
  protocol : Ast.protocol;
  proc_id : int option;
  ast : Ast.router_process;
}

type catalog = {
  processes : t array;
  by_router : int list array;
  topo : Rd_topo.Topology.t;
  addr_owner : (int, int) Hashtbl.t;
}

let build (topo : Rd_topo.Topology.t) =
  let n = Array.length topo.routers in
  let by_router = Array.make n [] in
  let procs = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun ri (_, (cfg : Ast.t)) ->
      List.iter
        (fun (p : Ast.router_process) ->
          let pid = !next in
          incr next;
          procs := { pid; router = ri; protocol = p.protocol; proc_id = p.proc_id; ast = p } :: !procs;
          by_router.(ri) <- pid :: by_router.(ri))
        cfg.processes)
    topo.routers;
  Array.iteri (fun i l -> by_router.(i) <- List.rev l) by_router;
  let addr_owner = Hashtbl.create 1024 in
  Array.iter
    (fun (i : Rd_topo.Topology.iface) ->
      match i.address with
      | Some (a, _) -> Hashtbl.replace addr_owner (Ipv4.to_int a) i.router
      | None -> ())
    topo.ifaces;
  { processes = Array.of_list (List.rev !procs); by_router; topo; addr_owner }

(* Classful prefix of an address: A /8, B /16, C /24, else host. *)
let classful a =
  let hi = Ipv4.to_int a lsr 24 in
  if hi < 128 then Prefix.make a 8
  else if hi < 192 then Prefix.make a 16
  else if hi < 224 then Prefix.make a 24
  else Prefix.host a

let covers t a =
  List.exists
    (function
      | Ast.Net_wildcard (w, _) -> Wildcard.matches w a
      | Ast.Net_classful n -> Prefix.mem a (classful n)
      | Ast.Net_mask _ -> false)
    t.ast.networks

let covering catalog (i : Rd_topo.Topology.iface) =
  match i.address with
  | None -> []
  | Some (a, _) ->
    List.filter_map
      (fun pid ->
        let p = catalog.processes.(pid) in
        if covers p a then Some p else None)
      catalog.by_router.(i.router)

let area_on t a =
  let rec go = function
    | [] -> None
    | Ast.Net_wildcard (w, area) :: rest -> if Wildcard.matches w a then area else go rest
    | _ :: rest -> go rest
  in
  go t.ast.networks

let bgp_asn t = if t.protocol = Ast.Bgp then t.proc_id else None

let find_by_peer_addr catalog a =
  match Hashtbl.find_opt catalog.addr_owner (Ipv4.to_int a) with
  | None -> None
  | Some ri ->
    List.find_map
      (fun pid ->
        let p = catalog.processes.(pid) in
        if p.protocol = Ast.Bgp then Some p else None)
      catalog.by_router.(ri)

let to_string catalog t =
  let rname, _ = catalog.topo.routers.(t.router) in
  match t.proc_id with
  | Some id -> Printf.sprintf "%s:%s %d" rname (Ast.protocol_to_string t.protocol) id
  | None -> Printf.sprintf "%s:%s" rname (Ast.protocol_to_string t.protocol)
