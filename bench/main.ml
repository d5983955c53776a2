(* Paper regeneration.

   Regenerates every table and figure of the paper's evaluation from the
   synthetic 31-network study (the substitution for the proprietary
   configuration corpus; see DESIGN.md §2):

     Figure 4   net5 configuration size distribution
     Figure 8   network size distribution (study vs repository)
     Table 1    intra-/inter-domain protocol roles
     Table 3    interface-type census
     Figure 11  packet-filter placement CDF
     §7         design classification
     §5.1/§6.1  net5 case study (Figures 9, 10)
     §6.2       net15 case study (Figure 12, Table 2)
     plus the ablations from DESIGN.md §5 and the reproduction scorecard.

   The output is deterministic (test/paper.expected pins it) and does not
   depend on the number of pool workers, which RDNA_JOBS sets.  Runtime
   is measured by rdbench (BENCHMARK.json), not here. *)

let master_seed = 2004

let line = String.make 78 '='

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line

let () =
  section "PAPER EXPERIMENT REGENERATION";
  let nets = Rd_study.Population.build ~master_seed () in
  let routers =
    List.fold_left (fun acc (n : Rd_study.Population.network) -> acc + n.spec.n) 0 nets
  in
  Printf.printf "%d networks, %d routers analyzed (seed %d)\n" (List.length nets) routers
    master_seed;
  let find id = List.find (fun (n : Rd_study.Population.network) -> n.spec.net_id = id) nets in
  let net5 = find 5 and net15 = find 15 in
  let stats = List.map Rd_study.Netstat.of_network nets in
  section "Figure 4";
  print_string (Rd_study.Experiments.fig4 net5);
  section "Figure 8";
  print_string (Rd_study.Experiments.fig8 ~master_seed nets);
  section "Table 1";
  print_string (Rd_study.Experiments.table1_stats stats);
  section "Table 3";
  print_string (Rd_study.Experiments.table3_stats stats);
  section "Figure 11";
  print_string (Rd_study.Experiments.fig11_stats stats);
  section "Section 7";
  print_string (Rd_study.Experiments.sec7_stats stats);
  section "net5 case study (Figures 9 and 10)";
  print_string (Rd_study.Experiments.net5_case net5);
  section "net15 case study (Figure 12 and Table 2)";
  print_string (Rd_study.Experiments.net15_case net15);
  section "Ablation: instance computation";
  print_string
    (Rd_study.Experiments.ablation_instances
       (List.filter (fun (n : Rd_study.Population.network) -> n.spec.n <= 881) nets));
  section "Ablation: address-block threshold (net5)";
  print_string (Rd_study.Experiments.ablation_blocks net5);
  section "Ablation: external-facing detection";
  print_string
    (Rd_study.Experiments.ablation_external
       (List.filter (fun (n : Rd_study.Population.network) -> n.spec.net_id <= 15) nets));
  section "Ablation: strict OSPF area matching (on a multi-area backbone)";
  print_string (Rd_study.Experiments.ablation_ospf_area (find 2));
  section "Reproduction scorecard";
  print_string (Rd_study.Experiments.scorecard ~master_seed nets)
