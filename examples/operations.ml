(* Operational tasks on top of the routing design (paper §8.1):
   the design checks (vulnerability assessment / anomaly detection) and
   "what if" maintenance analysis. *)

let () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:17 ~n:24 ~index:6 () in
  let files = Rd_gen.Builder.to_texts net in
  let a = Rd_core.Analysis.analyze ~name:"ops-demo" files in
  print_string (Rd_core.Analysis.summary a);

  print_endline "\n=== design checks (vulnerability assessment / anomaly detection) ===";
  print_string (Rd_config.Diag.render (Rd_core.Lint.run ~files a));

  print_endline "\n=== what if the border router fails? ===";
  let d = Rd_core.Whatif.run a [ Rd_core.Whatif.Remove_router "ent-r0" ] in
  print_string (Rd_core.Whatif.render d);

  print_endline "\n=== what if the core interconnect link is cut? ===";
  (* find the link between the two cores *)
  (match
     List.find_opt
       (fun (l : Rd_topo.Topology.link) ->
         List.exists (fun (e : Rd_topo.Topology.iface) -> e.router = 0) l.endpoints
         && List.exists (fun (e : Rd_topo.Topology.iface) -> e.router = 1) l.endpoints)
       a.topo.links
   with
   | Some l ->
     Printf.printf "cutting %s\n" (Rd_addr.Prefix.to_string l.subnet_of_link);
     print_string
       (Rd_core.Whatif.render (Rd_core.Whatif.run a [ Rd_core.Whatif.Remove_link l.subnet_of_link ]))
   | None -> print_endline "no core link found")
