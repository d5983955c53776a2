open Rd_config

type t = {
  hostname : string;
  mutable interfaces : Ast.interface list;  (* reverse order *)
  mutable processes : Ast.router_process list;  (* reverse order *)
  mutable acls : Ast.acl list;
  mutable route_maps : Ast.route_map list;
  mutable prefix_lists : Ast.prefix_list list;
  mutable statics : Ast.static_route list;
  counters : (string, int) Hashtbl.t;
}

let create hostname =
  {
    hostname;
    interfaces = [];
    processes = [];
    acls = [];
    route_maps = [];
    prefix_lists = [];
    statics = [];
    counters = Hashtbl.create 8;
  }

let name t = t.hostname

let next_unit t kind =
  let n = try Hashtbl.find t.counters kind with Not_found -> 0 in
  Hashtbl.replace t.counters kind (n + 1);
  n

let iface_name kind unit_no =
  match kind with
  | "Loopback" | "Tunnel" | "Dialer" | "Vlan" | "Multilink" | "Async" | "BRI" | "Null" ->
    Printf.sprintf "%s%d" kind unit_no
  | _ -> Printf.sprintf "%s%d/%d" kind (unit_no / 4) (unit_no mod 4)

let add_interface t ~kind ?(p2p = false) ?addr ?unnumbered ?acl_in ?(extras = []) ?description
    () =
  let if_name = iface_name kind (next_unit t kind) in
  let access_groups = match acl_in with Some a -> [ (a, Ast.In) ] | None -> [] in
  let i =
    {
      (Ast.empty_interface if_name) with
      Ast.if_address = addr;
      unnumbered;
      access_groups;
      point_to_point = p2p;
      if_extras = extras;
      if_description = description;
    }
  in
  t.interfaces <- i :: t.interfaces;
  if_name

let update_process t protocol proc_id f =
  let found = ref false in
  t.processes <-
    List.map
      (fun (p : Ast.router_process) ->
        if p.protocol = protocol && p.proc_id = proc_id then begin
          found := true;
          f p
        end
        else p)
      t.processes;
  if not !found then t.processes <- f (Ast.empty_process protocol proc_id) :: t.processes

let add_acl t acl = if not (List.exists (fun (a : Ast.acl) -> a.acl_name = acl.Ast.acl_name) t.acls) then t.acls <- acl :: t.acls

let add_route_map t rm =
  if not (List.exists (fun (r : Ast.route_map) -> r.rm_name = rm.Ast.rm_name) t.route_maps) then
    t.route_maps <- rm :: t.route_maps

let add_prefix_list t pl =
  if not (List.exists (fun (p : Ast.prefix_list) -> p.pl_name = pl.Ast.pl_name) t.prefix_lists)
  then t.prefix_lists <- pl :: t.prefix_lists

let add_static t s = t.statics <- s :: t.statics

let last_interface_name t =
  match t.interfaces with [] -> None | i :: _ -> Some i.Ast.if_name

let to_ast t =
  {
    Ast.hostname = Some t.hostname;
    interfaces = List.rev t.interfaces;
    processes =
      List.rev_map
        (fun (p : Ast.router_process) ->
          {
            p with
            Ast.networks = List.rev p.networks;
            redistributes = List.rev p.redistributes;
            dlists = List.rev p.dlists;
            neighbors = List.rev p.neighbors;
            passive_interfaces = List.rev p.passive_interfaces;
          })
        t.processes;
    acls = List.rev t.acls;
    route_maps = List.rev t.route_maps;
    prefix_lists = List.rev t.prefix_lists;
    statics = List.rev t.statics;
    total_lines = 0;
    command_count = 0;
    unknown = [];
  }
