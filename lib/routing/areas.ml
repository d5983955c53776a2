open Rd_config

type area_info = { area : int; routers : int list; covered_interfaces : int }

type t = {
  inst_id : int;
  areas : area_info list;
  abrs : int list;
  has_backbone : bool;
}

let analyze (catalog : Process.catalog) (assignment : Instance.assignment) =
  (* (instance, area) -> (router set, interface count) *)
  let tbl : (int * int, (int, unit) Hashtbl.t * int ref) Hashtbl.t = Hashtbl.create 64 in
  let router_areas : (int * int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (ifc : Rd_topo.Topology.iface) ->
      match ifc.address with
      | None -> ()
      | Some (a, _) ->
        List.iter
          (fun pid ->
            let p = catalog.processes.(pid) in
            if p.protocol = Ast.Ospf then begin
              match Process.area_on p a with
              | Some area ->
                let inst = assignment.of_process.(pid) in
                let routers, count =
                  match Hashtbl.find_opt tbl (inst, area) with
                  | Some v -> v
                  | None ->
                    let v = (Hashtbl.create 8, ref 0) in
                    Hashtbl.replace tbl (inst, area) v;
                    v
                in
                Hashtbl.replace routers ifc.router ();
                incr count;
                let ra =
                  match Hashtbl.find_opt router_areas (inst, ifc.router) with
                  | Some s -> s
                  | None ->
                    let s = Hashtbl.create 4 in
                    Hashtbl.replace router_areas (inst, ifc.router) s;
                    s
                in
                Hashtbl.replace ra area ()
              | None -> ()
            end)
          catalog.by_router.(ifc.router))
    catalog.topo.ifaces;
  (* group by instance *)
  let by_inst = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (inst, area) (routers, count) ->
      let cur = try Hashtbl.find by_inst inst with Not_found -> [] in
      Hashtbl.replace by_inst inst
        (( area,
           {
             area;
             routers = List.sort Int.compare (Hashtbl.fold (fun r () acc -> r :: acc) routers []);
             covered_interfaces = !count;
           } )
        :: cur))
    tbl;
  let ospf_instances =
    Array.to_list assignment.instances
    |> List.filter (fun (i : Instance.t) -> i.protocol = Ast.Ospf)
  in
  List.map
    (fun (i : Instance.t) ->
      let areas =
        (try Hashtbl.find by_inst i.inst_id with Not_found -> [])
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd
      in
      let abrs =
        Hashtbl.fold
          (fun (inst, router) area_set acc ->
            if inst = i.inst_id && Hashtbl.length area_set >= 2 then router :: acc else acc)
          router_areas []
        |> List.sort Int.compare
      in
      {
        inst_id = i.inst_id;
        areas;
        abrs;
        has_backbone = List.exists (fun a -> a.area = 0) areas;
      })
    ospf_instances

let render (catalog : Process.catalog) t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "OSPF instance %d: %d area(s)%s\n" t.inst_id (List.length t.areas)
    (if t.has_backbone then "" else " (no backbone area!)");
  List.iter
    (fun a ->
      Printf.bprintf buf "  area %d: %d routers, %d interfaces\n" a.area (List.length a.routers)
        a.covered_interfaces)
    t.areas;
  if t.abrs <> [] then
    Printf.bprintf buf "  area border routers: %s\n"
      (String.concat ", " (List.map (fun r -> fst catalog.topo.routers.(r)) t.abrs));
  Buffer.contents buf
