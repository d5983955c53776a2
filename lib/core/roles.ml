open Rd_config

type role = Intra | Inter

type counts = {
  ospf : int * int;
  eigrp : int * int;
  rip : int * int;
  isis : int * int;
  ebgp_sessions : int * int;
}

let zero = { ospf = (0, 0); eigrp = (0, 0); rip = (0, 0); isis = (0, 0); ebgp_sessions = (0, 0) }

let add2 (a, b) (c, d) = (a + c, b + d)

let add a b =
  {
    ospf = add2 a.ospf b.ospf;
    eigrp = add2 a.eigrp b.eigrp;
    rip = add2 a.rip b.rip;
    isis = add2 a.isis b.isis;
    ebgp_sessions = add2 a.ebgp_sessions b.ebgp_sessions;
  }

let instance_role (t : Analysis.t) (inst : Rd_routing.Instance.t) =
  let member pid = List.mem pid inst.members in
  let speaks_outside =
    List.exists (fun (pid, _) -> member pid) t.graph.adjacency.igp_external_edges
  in
  if speaks_outside then Inter else Intra

let count (t : Analysis.t) =
  let igp =
    List.fold_left
      (fun acc (inst : Rd_routing.Instance.t) ->
        if inst.protocol = Ast.Bgp then acc
        else begin
          let bump (i, e) = match instance_role t inst with Intra -> (i + 1, e) | Inter -> (i, e + 1) in
          match inst.protocol with
          | Ast.Ospf -> { acc with ospf = bump acc.ospf }
          | Ast.Eigrp | Ast.Igrp -> { acc with eigrp = bump acc.eigrp }
          | Ast.Rip -> { acc with rip = bump acc.rip }
          | Ast.Isis -> { acc with isis = bump acc.isis }
          | Ast.Bgp -> acc
        end)
      zero
      (Array.to_list t.graph.assignment.instances)
  in
  (* EBGP sessions: internal EBGP adjacencies are intra-network uses;
     external peerings are the conventional inter-domain role. *)
  let intra_sessions =
    List.length
      (List.filter
         (fun (a : Rd_routing.Adjacency.t) -> a.kind = Rd_routing.Adjacency.Ebgp)
         t.graph.adjacency.adjacencies)
  in
  let inter_sessions = List.length t.graph.adjacency.external_peerings in
  { igp with ebgp_sessions = (intra_sessions, inter_sessions) }

let uses_bgp (t : Analysis.t) =
  Array.exists
    (fun (i : Rd_routing.Instance.t) -> i.protocol = Ast.Bgp)
    t.graph.assignment.instances

let total_conventional_fraction c =
  let igp_intra = fst c.ospf + fst c.eigrp + fst c.rip + fst c.isis in
  let igp_inter = snd c.ospf + snd c.eigrp + snd c.rip + snd c.isis in
  let igp_total = igp_intra + igp_inter in
  let s_intra, s_inter = c.ebgp_sessions in
  let s_total = s_intra + s_inter in
  ( (if igp_total = 0 then 1.0 else float_of_int igp_intra /. float_of_int igp_total),
    if s_total = 0 then 1.0 else float_of_int s_inter /. float_of_int s_total )
