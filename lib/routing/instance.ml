open Rd_config

type t = {
  inst_id : int;
  protocol : Ast.protocol;
  members : int list;
  routers : int list;
  asn : int option;
}

type assignment = { instances : t array; of_process : int array }

let build_assignment (catalog : Process.catalog) uf =
  let n = Array.length catalog.processes in
  let groups = Rd_util.Union_find.groups uf in
  let reps = Hashtbl.fold (fun rep members acc -> (rep, members) :: acc) groups [] in
  (* Stable order: by smallest member pid, so instance numbering is
     deterministic across runs. *)
  let reps =
    List.sort
      (fun (_, m1) (_, m2) ->
        Int.compare (List.fold_left min max_int m1) (List.fold_left min max_int m2))
      reps
  in
  let of_process = Array.make n (-1) in
  let instances =
    List.mapi
      (fun inst_id (_, members) ->
        let members = List.sort Int.compare members in
        List.iter (fun pid -> of_process.(pid) <- inst_id) members;
        let first = catalog.processes.(List.hd members) in
        let routers =
          List.sort_uniq Int.compare (List.map (fun pid -> catalog.processes.(pid).Process.router) members)
        in
        {
          inst_id;
          protocol = first.Process.protocol;
          members;
          routers;
          asn = (if first.Process.protocol = Ast.Bgp then first.Process.proc_id else None);
        })
      reps
  in
  { instances = Array.of_list instances; of_process }

let compute (catalog : Process.catalog) (adj : Adjacency.result) =
  let n = Array.length catalog.processes in
  let uf = Rd_util.Union_find.create n in
  List.iter
    (fun (a : Adjacency.t) ->
      match a.kind with
      | Adjacency.Igp _ | Adjacency.Ibgp -> Rd_util.Union_find.union uf a.a a.b
      | Adjacency.Ebgp -> () (* flood fill stops at EBGP between ASs *))
    adj.adjacencies;
  build_assignment catalog uf

let compute_by_process_id (catalog : Process.catalog) =
  let n = Array.length catalog.processes in
  let uf = Rd_util.Union_find.create n in
  let key (p : Process.t) = (p.protocol, p.proc_id) in
  let first_with = Hashtbl.create 64 in
  Array.iter
    (fun (p : Process.t) ->
      match Hashtbl.find_opt first_with (key p) with
      | Some pid -> Rd_util.Union_find.union uf pid p.pid
      | None -> Hashtbl.replace first_with (key p) p.pid)
    catalog.processes;
  build_assignment catalog uf

let size t = List.length t.routers

let to_string t =
  match t.asn with
  | Some asn -> Printf.sprintf "instance %d: bgp AS %d (%d routers)" t.inst_id asn (size t)
  | None ->
    Printf.sprintf "instance %d: %s (%d routers)" t.inst_id
      (Ast.protocol_to_string t.protocol)
      (size t)
