open Rd_addr
open Rd_util

let bprintf = Printf.bprintf

let heading buf title paper =
  bprintf buf "== %s ==\n" title;
  bprintf buf "paper reference: %s\n\n" paper

(* ---------------------------------------------------------------- fig 4 *)

let fig4 (net : Population.network) =
  let buf = Buffer.create 1024 in
  heading buf "Figure 4: configuration-file sizes of net5"
    "881 routers, ~270 lines/config on average, 237,870 commands total";
  let sizes = List.sort Int.compare (Rd_core.Analysis.config_sizes net.analysis) in
  let commands =
    List.fold_left
      (fun acc (_, (c : Rd_config.Ast.t)) -> acc + c.command_count)
      0 net.analysis.configs
  in
  let n = List.length sizes in
  let fsizes = List.map float_of_int sizes in
  bprintf buf "configs: %d   commands: %d   avg lines: %.0f\n" n commands (Stat.mean fsizes);
  bprintf buf "min %d  p25 %.0f  median %.0f  p75 %.0f  p95 %.0f  max %d\n\n"
    (Stat.imin sizes) (Stat.percentile 25.0 fsizes) (Stat.median fsizes)
    (Stat.percentile 75.0 fsizes) (Stat.percentile 95.0 fsizes) (Stat.imax sizes);
  bprintf buf "size distribution (sorted, as the paper plots it):\n%s\n"
    (Cdf.plot ~x_label:"config lines" (Cdf.of_samples fsizes));
  Buffer.contents buf

(* ---------------------------------------------------------------- fig 8 *)

let buckets = [ 10.; 20.; 40.; 80.; 160.; 320.; 640.; 1280. ]
let bucket_labels = [ "<10"; "10-20"; "20-40"; "40-80"; "80-160"; "160-320"; "320-640"; "640-1280"; ">1280" ]

let fig8 ~master_seed (nets : Population.network list) =
  let buf = Buffer.create 1024 in
  heading buf "Figure 8: network size distribution"
    "31 study networks overweighted >20 routers vs 2,400-network repository dominated by <10";
  let study = List.map (fun (n : Population.network) -> float_of_int n.spec.n) nets in
  let repo =
    List.map float_of_int (Population.repository_sizes ~master_seed ~count:2400)
  in
  let hist xs = Stat.histogram ~edges:buckets xs in
  let hs = hist study and hr = hist repo in
  let frac h i total = 100.0 *. float_of_int h.(i) /. float_of_int total in
  let rows =
    List.mapi
      (fun i label ->
        [
          label;
          Printf.sprintf "%.1f%%" (frac hs i (List.length study));
          Printf.sprintf "%.1f%%" (frac hr i (List.length repo));
        ])
      bucket_labels
  in
  Buffer.add_string buf
    (Table.render ~headers:[ "routers"; "study (31)"; "repository (2400)" ]
       ~aligns:[ Table.Left; Table.Right; Table.Right ] rows);
  Buffer.contents buf

(* -------------------------------------------------------------- table 1 *)

(* The study tables consume checkpointable {!Netstat.t} digests, so a
   resumed (checkpoint-replayed) study renders byte-identically by
   construction. *)

let table1_stats (stats : Netstat.t list) =
  let buf = Buffer.create 1024 in
  heading buf "Table 1: protocol instances performing intra- or inter-domain routing"
    "OSPF 9624/1161, EIGRP 12741/156, RIP 1342/161 (instances); EBGP 1490 intra / 13830 inter (sessions); ~90% conventional";
  let total =
    List.fold_left
      (fun acc (s : Netstat.t) -> Rd_core.Roles.add acc s.roles)
      Rd_core.Roles.zero stats
  in
  let row name (intra, inter) =
    [ name; string_of_int intra; string_of_int inter ]
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "protocol"; "intra"; "inter" ]
       ~aligns:[ Table.Left; Table.Right; Table.Right ]
       [
         row "OSPF (instances)" total.ospf;
         row "EIGRP (instances)" total.eigrp;
         row "RIP (instances)" total.rip;
         row "EBGP (sessions)" total.ebgp_sessions;
       ]);
  let igp_frac, ebgp_frac = Rd_core.Roles.total_conventional_fraction total in
  bprintf buf "\nconventional roles: %.1f%% of IGP instances intra, %.1f%% of EBGP sessions inter\n"
    (100.0 *. igp_frac) (100.0 *. ebgp_frac);
  let no_bgp = List.length (List.filter (fun (s : Netstat.t) -> not s.uses_bgp) stats) in
  bprintf buf "networks without BGP: %d (paper: 3)\n" no_bgp;
  Buffer.contents buf

(* -------------------------------------------------------------- table 3 *)

let table3_stats (stats : Netstat.t list) =
  let buf = Buffer.create 1024 in
  heading buf "Table 3: interface-type census"
    "96,487 interfaces; Serial 53,337 > FastEthernet 20,420 > ATM 6,242 > POS 3,937 > Ethernet 3,685 > Hssi > GigE > ...";
  (* Decoded [Itype.t] keys hash and compare structurally identically to
     the originals, and census order is preserved by the codec, so the
     Hashtbl fold (and hence tie-breaking in the sort below) matches a
     fresh run exactly. *)
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (s : Netstat.t) ->
      List.iter
        (fun (ty, c) ->
          let cur = try Hashtbl.find counts ty with Not_found -> 0 in
          Hashtbl.replace counts ty (cur + c))
        s.census)
    stats;
  let all = Hashtbl.fold (fun ty c acc -> (ty, c) :: acc) counts [] in
  (* The paper's table does not list loopback or VLAN interfaces. *)
  let shown, hidden =
    List.partition
      (fun (ty, _) -> not Rd_topo.Itype.(equal ty Loopback || equal ty Vlan))
      all
  in
  let shown = List.sort (fun (_, a) (_, b) -> Int.compare a b) shown in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 shown in
  Buffer.add_string buf
    (Table.render ~headers:[ "type"; "count" ] ~aligns:[ Table.Left; Table.Right ]
       (List.map (fun (ty, c) -> [ Rd_topo.Itype.to_string ty; string_of_int c ]) shown
        @ [ [ "total"; string_of_int total ] ]));
  let hidden_total = List.fold_left (fun acc (_, c) -> acc + c) 0 hidden in
  if hidden_total > 0 then
    bprintf buf "(plus %d loopback/VLAN interfaces, which the paper's table omits)\n" hidden_total;
  Buffer.contents buf

(* --------------------------------------------------------------- fig 11 *)

let fig11_stats (stats : Netstat.t list) =
  let buf = Buffer.create 1024 in
  heading buf "Figure 11: CDF of % packet-filter rules on internal links"
    ">30% of filtered networks apply >=40% of their rules internally; 3 networks define no filters";
  let percents = List.filter_map (fun (s : Netstat.t) -> s.filter_internal_pct) stats in
  let no_filters = List.length stats - List.length percents in
  bprintf buf "networks with filters: %d (without: %d)\n" (List.length percents) no_filters;
  let cdf = Cdf.of_samples percents in
  let at40 = 1.0 -. Cdf.eval cdf 39.999 in
  bprintf buf "fraction of networks with >=40%% internal rules: %.0f%%\n\n" (100.0 *. at40);
  bprintf buf "%s" (Cdf.plot ~x_label:"% of filter rules on internal links" cdf);
  Buffer.contents buf

(* ---------------------------------------------------------------- sec 7 *)

let sec7_stats (nstats : Netstat.t list) =
  let buf = Buffer.create 1024 in
  heading buf "Section 7: routing design classification"
    "4 backbones (400-600 routers, mean 540); 7 textbook enterprises (19-101); 20 unclassifiable (4-1750, median 36, four larger than the largest backbone)";
  let of_design d = List.filter (fun (s : Netstat.t) -> s.design = d) nstats in
  let row_stats label stats' =
    let sizes = List.map (fun (s : Netstat.t) -> s.routers) stats' in
    [
      label;
      string_of_int (List.length stats');
      (match sizes with
       | [] -> "-"
       | _ -> Printf.sprintf "%d-%d" (Stat.imin sizes) (Stat.imax sizes));
      (match sizes with [] -> "-" | _ -> Printf.sprintf "%.0f" (Stat.imean sizes));
      (match sizes with [] -> "-" | _ -> Printf.sprintf "%.0f" (Stat.imedian sizes));
    ]
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "design"; "networks"; "size range"; "mean"; "median" ]
       ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
       [
         row_stats "backbone" (of_design Rd_core.Design_class.Backbone);
         row_stats "enterprise" (of_design Rd_core.Design_class.Enterprise);
         row_stats "unclassifiable" (of_design Rd_core.Design_class.Unclassifiable);
       ]);
  let backbone_max =
    List.fold_left max 0
      (List.map (fun (s : Netstat.t) -> s.routers) (of_design Rd_core.Design_class.Backbone))
  in
  let larger =
    List.filter
      (fun (s : Netstat.t) -> s.routers > backbone_max)
      (of_design Rd_core.Design_class.Unclassifiable)
  in
  bprintf buf "\nunclassifiable networks larger than the largest backbone: %s (paper: 760, 890, 1430, 1750)\n"
    (String.concat ", "
       (List.sort compare (List.map (fun (s : Netstat.t) -> string_of_int s.routers) larger)));
  (* §7.1's redistribution diversity: how many networks push BGP-learned
     routes into an IGP (the paper found 17 of 31) *)
  let bgp_into_igp =
    List.length (List.filter (fun (s : Netstat.t) -> s.bgp_into_igp) nstats)
  in
  bprintf buf "\nnetworks redistributing BGP-learned routes into an IGP: %d (paper: 17)\n"
    bgp_into_igp;
  (* IBGP mesh completeness across multi-router BGP instances *)
  let completeness =
    List.concat_map (fun (s : Netstat.t) -> s.ibgp_completeness) nstats
  in
  if completeness <> [] then
    bprintf buf
      "IBGP mesh completeness over %d multi-router BGP instances: min %.2f, median %.2f, max %.2f\n"
      (List.length completeness) (List.fold_left min 1.0 completeness)
      (Stat.median completeness)
      (List.fold_left max 0.0 completeness);
  bprintf buf "\nper-network verdicts:\n";
  List.iter
    (fun (s : Netstat.t) ->
      bprintf buf "  %-7s %-12s %5d routers -> %s\n" s.label s.arch s.routers
        (Rd_core.Design_class.design_to_string s.design))
    nstats;
  Buffer.contents buf

(* ----------------------------------------------------------- net5 case *)

let net5_case (net : Population.network) =
  let buf = Buffer.create 1024 in
  heading buf "net5 case study (Figures 9 and 10, §5.1/§6.1)"
    "881 routers; 24 instances (largest 445, EIGRP); 14 internal BGP ASs; 16 external ASs; 6 redundant redistribution routers whose joint failure partitions instances 1 and 4";
  let a = net.analysis in
  Buffer.add_string buf (Rd_core.Analysis.summary a);
  let insts = a.graph.assignment.instances in
  let eigrp_sizes =
    Array.to_list insts
    |> List.filter (fun (i : Rd_routing.Instance.t) -> i.protocol <> Rd_config.Ast.Bgp)
    |> List.map Rd_routing.Instance.size
    |> List.sort (fun x y -> Int.compare y x)
  in
  bprintf buf "\nEIGRP instance sizes: %s\n"
    (String.concat ", " (List.map string_of_int eigrp_sizes));
  (* the paper's partition question *)
  let find_inst f = Array.to_list insts |> List.find_opt f in
  (match
     ( find_inst (fun i -> i.protocol <> Rd_config.Ast.Bgp && Rd_routing.Instance.size i > 400),
       find_inst (fun i -> i.asn = Some 65001) )
   with
   | Some big, Some glue -> (
     match
       Rd_sim.Failure.min_router_failures a.graph ~src:glue.inst_id ~dst:big.inst_id
     with
     | Rd_sim.Failure.Cut (k, cut) ->
       bprintf buf "router failures to partition BGP-65001 from the 445-router EIGRP instance: %d (paper: 6)\n" k;
       bprintf buf "  cut routers: %s\n"
         (String.concat ", " (List.map (fun r -> fst a.topo.routers.(r)) cut))
     | Rd_sim.Failure.Never -> bprintf buf "partition: never\n"
     | Rd_sim.Failure.Already_partitioned -> bprintf buf "partition: already partitioned\n")
   | _ -> bprintf buf "expected instances not found\n");
  (* a route pathway in the middle of the network (Figure 10) *)
  (match Rd_topo.Topology.router_index a.topo "c0-r200" with
   | Some ri -> (
     let pw = Rd_routing.Pathway.build a.graph ~router:ri in
     bprintf buf "\n%s" (Rd_routing.Pathway.render a.graph pw))
   | None -> ());
  Buffer.contents buf

(* ---------------------------------------------------------- net15 case *)

let net15_case (net : Population.network) =
  let buf = Buffer.create 1024 in
  heading buf "net15 case study (Figure 12 and Table 2, §6.2)"
    "6 instances; only two /16 and three /24 admitted, no default route; A2&A5, A2&A3, A4&A1 all empty; AB2 and AB4 mutually unreachable; hosts can be reached from outside but cannot respond";
  let a = net.analysis in
  Buffer.add_string buf (Rd_core.Analysis.summary a);
  let layout = Rd_gen.Gen_restricted.default_layout in
  let ab_sets =
    [
      ("AB0", Prefix_set.of_prefixes layout.ab0);
      ("AB1", Prefix_set.of_prefixes layout.ab1);
      ("AB2", Prefix_set.of_prefix layout.ab2);
      ("AB3", Prefix_set.of_prefixes layout.ab3);
      ("AB4", Prefix_set.of_prefix layout.ab4);
    ]
  in
  let describe set =
    let names =
      List.filter_map
        (fun (name, s) -> if Prefix_set.overlaps s set then Some name else None)
        ab_sets
    in
    if names = [] then "-" else String.concat ", " names
  in
  (* Collect the restricted filters on the instance graph's external edges
     (Table 2). *)
  bprintf buf "\nTable 2: address blocks mentioned by redistribution policies\n";
  let edges =
    List.filter
      (fun (e : Rd_routing.Instance_graph.edge) ->
        (match (e.src, e.dst) with
         | Rd_routing.Instance_graph.External _, _ | _, Rd_routing.Instance_graph.External _ -> true
         | _ -> false)
        && not (Rd_policy.Route_filter.is_unrestricted e.filter))
      a.graph.edges
  in
  let policy_sets = Hashtbl.create 8 in
  List.iter
    (fun (e : Rd_routing.Instance_graph.edge) ->
      let dir = match e.src with Rd_routing.Instance_graph.External _ -> "in" | _ -> "out" in
      let s = Rd_policy.Route_filter.permitted e.filter in
      let key = (dir, describe s) in
      if not (Hashtbl.mem policy_sets key) then Hashtbl.replace policy_sets key s)
    edges;
  let named =
    Hashtbl.fold (fun (dir, blocks) s acc -> (dir, blocks, s) :: acc) policy_sets []
    |> List.sort compare
  in
  let named = List.mapi (fun i (dir, blocks, s) -> (Printf.sprintf "A%d" (i + 1), dir, blocks, s)) named in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "policy"; "direction"; "contents" ]
       (List.map (fun (name, dir, blocks, _) -> [ name; dir; blocks ]) named));
  (* intersections *)
  bprintf buf "\npolicy intersections (paper: inbound-one-site vs outbound-other-site are all empty):\n";
  List.iter
    (fun (n1, d1, _, s1) ->
      List.iter
        (fun (n2, d2, _, s2) ->
          if n1 < n2 && d1 <> d2 then
            bprintf buf "  %s(%s) & %s(%s) = %s\n" n1 d1 n2 d2
              (if Prefix_set.is_empty (Prefix_set.inter s1 s2) then "empty"
               else "NON-EMPTY"))
        named)
    named;
  (* reachability *)
  let r = Rd_reach.Reachability.compute a.graph in
  let host_in p = Prefix.nth p (Prefix.size p / 2) in
  let ab2_host = host_in layout.ab2 and ab4_host = host_in layout.ab4 in
  bprintf buf "\nreachability verdicts:\n";
  bprintf buf "  AB2 host -> AB4 host: %b (paper: false)\n"
    (Rd_reach.Reachability.can_reach r ~src:ab2_host ~dst:ab4_host);
  bprintf buf "  AB4 host -> AB2 host: %b (paper: false)\n"
    (Rd_reach.Reachability.can_reach r ~src:ab4_host ~dst:ab2_host);
  bprintf buf "  AB2 host -> AB0 destination: %b (paper: true)\n"
    (Rd_reach.Reachability.can_reach r ~src:ab2_host ~dst:(host_in (List.hd layout.ab0)));
  let defaults =
    Array.to_list a.graph.assignment.instances
    |> List.filter (fun (i : Rd_routing.Instance.t) -> Rd_reach.Reachability.has_default r i.inst_id)
  in
  bprintf buf "  instances holding a default route: %d (paper: none permitted)\n"
    (List.length defaults);
  (* the paper's one-way exposure: the sites' blocks are advertised out,
     so packets from the Internet can arrive, but no route back exists *)
  let advertised_somewhere p =
    List.exists (fun (_, s) -> Prefix_set.overlaps s (Prefix_set.of_prefix p)) r.advertised
  in
  bprintf buf "  AB2 advertised to the public ASs: %b — outside packets can arrive (paper: yes)\n"
    (advertised_somewhere layout.ab2);
  bprintf buf "  AB2 hosts can respond to arbitrary Internet sources: %b (paper: no)\n"
    (Rd_reach.Reachability.can_reach r ~src:ab2_host ~dst:(Ipv4.of_string_exn "8.8.8.8"));
  (* OSPF load bound: external routes admissible into each OSPF instance *)
  bprintf buf "\nmax external routes injectable into each OSPF instance (bounds OSPF load, §6.2):\n";
  Array.iter
    (fun (i : Rd_routing.Instance.t) ->
      if i.protocol = Rd_config.Ast.Ospf then begin
        let ext = Rd_reach.Reachability.external_routes_of r i.inst_id in
        bprintf buf "  instance %d (%d routers): %d external prefixes max\n" i.inst_id
          (Rd_routing.Instance.size i)
          (List.length (Prefix_set.to_prefixes ext))
      end)
    a.graph.assignment.instances;
  (* validate the analytic bound against the route-propagation simulator:
     offer the admitted prefixes plus junk the filters must reject *)
  let offers =
    layout.ab0 @ layout.ab1 @ layout.ab3
    @ [ Prefix.of_string_exn "8.8.8.0/24"; Prefix.of_string_exn "203.0.200.0/24"; Prefix.default ]
  in
  let pg = Rd_routing.Process_graph.build a.catalog in
  let sim = Rd_sim.Propagate.run ~external_prefixes:offers pg in
  bprintf buf "\nsimulator cross-check (offering %d prefixes incl. junk and a default):\n"
    (List.length offers);
  Array.iter
    (fun (i : Rd_routing.Instance.t) ->
      if i.protocol = Rd_config.Ast.Ospf then begin
        (* externals actually present in a member process RIB, as a
           canonical prefix set so counting granularity matches the bound *)
        let pid = List.hd i.members in
        let simulated =
          Rd_sim.Rib.routes (Rd_sim.Propagate.rib_of_process sim pid)
          |> List.filter_map (fun (route : Rd_sim.Rib.route) ->
                 match route.source with
                 | Rd_sim.Rib.Proto (_, `External) -> Some route.dest
                 | _ -> None)
          |> Prefix_set.of_prefixes
        in
        let bound_set = Rd_reach.Reachability.external_routes_of r i.inst_id in
        bprintf buf "  instance %d: simulated %d external prefixes (bound %d) -> %s\n" i.inst_id
          (List.length (Prefix_set.to_prefixes simulated))
          (List.length (Prefix_set.to_prefixes bound_set))
          (if Prefix_set.subset simulated bound_set then "within bound" else "BOUND VIOLATED")
      end)
    a.graph.assignment.instances;
  Buffer.contents buf

(* ------------------------------------------------------------ ablations *)

(* ------------------------------------------------------------ scorecard --- *)

let scorecard ~master_seed (nets : Population.network list) =
  ignore master_seed;
  let buf = Buffer.create 1024 in
  heading buf "Reproduction scorecard" "one machine-checked criterion per table/figure";
  let checks = ref [] in
  let check name paper ok = checks := (name, paper, ok) :: !checks in
  let find id = List.find (fun (n : Population.network) -> n.spec.net_id = id) nets in
  (* §7 classification *)
  let designs =
    List.map (fun (n : Population.network) -> (Rd_core.Design_class.classify n.analysis).design) nets
  in
  let count d = List.length (List.filter (( = ) d) designs) in
  check "§7 backbones" "4 networks" (count Rd_core.Design_class.Backbone = 4);
  check "§7 textbook enterprises" "7 networks" (count Rd_core.Design_class.Enterprise = 7);
  check "§7 unclassifiable" "20 networks" (count Rd_core.Design_class.Unclassifiable = 20);
  let backbone_sizes =
    List.filter_map
      (fun (n : Population.network) ->
        if (Rd_core.Design_class.classify n.analysis).design = Rd_core.Design_class.Backbone then
          Some n.spec.n
        else None)
      nets
  in
  check "§7.2 backbone sizes" "400-600, mean 540"
    (List.for_all (fun n -> n >= 400 && n <= 600) backbone_sizes
    && abs_float (Stat.imean backbone_sizes -. 540.0) < 20.0);
  (* Table 1 *)
  let total =
    List.fold_left
      (fun acc (n : Population.network) -> Rd_core.Roles.add acc (Rd_core.Roles.count n.analysis))
      Rd_core.Roles.zero nets
  in
  let igp_frac, ebgp_frac = Rd_core.Roles.total_conventional_fraction total in
  check "Table 1 IGP roles" "~90% intra-domain" (igp_frac > 0.82 && igp_frac < 0.97);
  check "Table 1 EBGP roles" "~90% inter-domain" (ebgp_frac > 0.82 && ebgp_frac < 0.97);
  check "Table 1 inter-IGP mix" "OSPF dominates IGP-as-EGP"
    (snd total.ospf > snd total.eigrp && snd total.ospf > snd total.rip);
  check "Table 1 intra-IGP mix" "EIGRP dominates intra" (fst total.eigrp > fst total.ospf);
  check "no-BGP networks" "3 networks"
    (List.length (List.filter (fun (n : Population.network) -> not (Rd_core.Roles.uses_bgp n.analysis)) nets) = 3);
  (* Table 3 *)
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (n : Population.network) ->
      List.iter
        (fun (ty, c) ->
          Hashtbl.replace counts ty (c + try Hashtbl.find counts ty with Not_found -> 0))
        (Rd_topo.Topology.interface_census n.analysis.topo))
    nets;
  let g ty = try Hashtbl.find counts ty with Not_found -> 0 in
  check "Table 3 order" "Serial > FastEthernet > ATM > POS > Ethernet"
    (g Rd_topo.Itype.Serial > g Rd_topo.Itype.FastEthernet
    && g Rd_topo.Itype.FastEthernet > g Rd_topo.Itype.ATM
    && g Rd_topo.Itype.ATM > g Rd_topo.Itype.POS
    && g Rd_topo.Itype.POS > g Rd_topo.Itype.Ethernet);
  (* Figure 11 *)
  let percents =
    List.filter_map
      (fun (n : Population.network) ->
        Rd_policy.Filter_stats.internal_percentage n.analysis.filter_stats)
      nets
  in
  check "Fig 11 filtered networks" "28 networks" (List.length percents = 28);
  let heavy = List.length (List.filter (fun p -> p >= 40.0) percents) in
  check "Fig 11 internal filtering" ">30% of networks >=40% internal"
    (float_of_int heavy /. float_of_int (max 1 (List.length percents)) > 0.30);
  (* net5 *)
  let net5 = find 5 in
  check "net5 instances" "24 instances" (Rd_core.Analysis.instance_count net5.analysis = 24);
  check "net5 largest" "445-router EIGRP"
    (match Rd_core.Analysis.largest_instance net5.analysis with
     | Some i -> Rd_routing.Instance.size i = 445 && i.protocol = Rd_config.Ast.Eigrp
     | None -> false);
  check "net5 internal ASs" "14" (List.length (Rd_core.Analysis.internal_bgp_asns net5.analysis) = 14);
  check "net5 external ASs" "16" (List.length (Rd_core.Analysis.external_asns net5.analysis) = 16);
  let cut_ok =
    match
      ( Array.to_list net5.analysis.graph.assignment.instances
        |> List.find_opt (fun (i : Rd_routing.Instance.t) -> i.asn = Some 65001),
        Rd_core.Analysis.largest_instance net5.analysis )
    with
    | Some glue, Some big -> (
      match Rd_sim.Failure.min_router_failures net5.analysis.graph ~src:glue.inst_id ~dst:big.inst_id with
      | Rd_sim.Failure.Cut (6, _) -> true
      | _ -> false)
    | _ -> false
  in
  check "net5 partition cut" "6 redundant redistribution routers" cut_ok;
  (* net15 *)
  let net15 = find 15 in
  let r = Rd_reach.Reachability.compute net15.analysis.graph in
  let layout = Rd_gen.Gen_restricted.default_layout in
  let host p = Prefix.nth p (Prefix.size p / 2) in
  check "net15 instances" "6 instances" (Rd_core.Analysis.instance_count net15.analysis = 6);
  check "net15 site isolation" "AB2 and AB4 mutually unreachable"
    ((not (Rd_reach.Reachability.can_reach r ~src:(host layout.ab2) ~dst:(host layout.ab4)))
    && not (Rd_reach.Reachability.can_reach r ~src:(host layout.ab4) ~dst:(host layout.ab2)));
  check "net15 no default" "no default route anywhere"
    (Array.for_all
       (fun (i : Rd_routing.Instance.t) -> not (Rd_reach.Reachability.has_default r i.inst_id))
       net15.analysis.graph.assignment.instances);
  (* render *)
  let rows =
    List.rev_map
      (fun (name, paper, ok) -> [ name; paper; (if ok then "PASS" else "FAIL") ])
      !checks
  in
  Buffer.add_string buf
    (Table.render ~headers:[ "criterion"; "paper"; "verdict" ] rows);
  let failed = List.length (List.filter (fun (_, _, ok) -> not ok) !checks) in
  bprintf buf "\n%d/%d criteria pass\n" (List.length !checks - failed) (List.length !checks);
  Buffer.contents buf

let ablation_instances (nets : Population.network list) =
  let buf = Buffer.create 1024 in
  heading buf "Ablation: instance flood-fill vs process-id grouping"
    "the paper stresses process ids have no network-wide semantics (§3.2)";
  let rows =
    List.map
      (fun (n : Population.network) ->
        let a = n.analysis in
        let flood = Array.length a.graph.assignment.instances in
        let by_id =
          Array.length (Rd_routing.Instance.compute_by_process_id a.catalog).instances
        in
        [ n.spec.label; string_of_int n.spec.n; string_of_int flood; string_of_int by_id ])
      nets
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "network"; "routers"; "flood-fill"; "by process id" ]
       ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
       rows);
  bprintf buf "\nprocess-id grouping merges unrelated processes that share an id and splits\ninstances whose members use different ids; counts diverge wherever designs\nare non-trivial.\n";
  Buffer.contents buf

let ablation_blocks (net : Population.network) =
  let buf = Buffer.create 1024 in
  heading buf "Ablation: address-block joining threshold"
    "the paper joins while at least half the enlarged block is used (§3.4)";
  let subnets = Rd_addrspace.Blocks.subnets_of_configs net.analysis.configs in
  bprintf buf "raw subnets: %d\n" (List.length subnets);
  List.iter
    (fun threshold ->
      let blocks = Rd_addrspace.Blocks.discover ~threshold subnets in
      bprintf buf "threshold %.2f -> %d blocks (compression %.1fx)\n" threshold
        (List.length blocks)
        (float_of_int (List.length subnets) /. float_of_int (max 1 (List.length blocks))))
    [ 1.0; 0.75; 0.5; 0.25; 0.125 ];
  Buffer.contents buf

let ablation_ospf_area (net : Population.network) =
  let buf = Buffer.create 512 in
  heading buf "Ablation: strict OSPF area matching"
    "real OSPF adjacency requires both ends to agree on the area; ignoring areas over-merges";
  let catalog = net.analysis.catalog in
  let with_strict strict f =
    let saved = !Rd_routing.Adjacency.strict_ospf_area in
    Rd_routing.Adjacency.strict_ospf_area := strict;
    Fun.protect ~finally:(fun () -> Rd_routing.Adjacency.strict_ospf_area := saved) f
  in
  let count strict =
    with_strict strict (fun () ->
        let adj = Rd_routing.Adjacency.compute catalog in
        let assignment = Rd_routing.Instance.compute catalog adj in
        (List.length adj.adjacencies, Array.length assignment.instances))
  in
  let strict_adj, strict_inst = count true in
  let loose_adj, loose_inst = count false in
  bprintf buf "%s (%d routers):\n" net.spec.label net.spec.n;
  bprintf buf "  strict area matching: %d adjacencies, %d instances\n" strict_adj strict_inst;
  bprintf buf "  areas ignored:        %d adjacencies, %d instances\n" loose_adj loose_inst;
  bprintf buf
    "(identical counts mean the network's areas are consistently configured;\n a divergence would reveal area-mismatch misconfigurations)\n";
  Buffer.contents buf

let ablation_external (nets : Population.network list) =
  let buf = Buffer.create 1024 in
  heading buf "Ablation: external-facing detection heuristics"
    "point-to-point /30 rule plus the multipoint next-hop rule (§5.2)";
  let rows =
    List.map
      (fun (n : Population.network) ->
        let ext = Rd_topo.Topology.external_interfaces n.analysis.topo in
        let p2p, multi =
          List.partition
            (fun (i : Rd_topo.Topology.iface) ->
              match i.subnet with Some s -> Prefix.len s >= 30 | None -> false)
            ext
        in
        [
          n.spec.label;
          string_of_int (List.length ext);
          string_of_int (List.length p2p);
          string_of_int (List.length multi);
        ])
      nets
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "network"; "external ifaces"; "by /30 rule"; "by next-hop rule" ]
       ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
       rows);
  bprintf buf "\nwithout the next-hop rule the multipoint externals would be misread as host LANs.\n";
  Buffer.contents buf

(* ------------------------------------------------------- what-if sweeps *)

let scenarios_of_analysis (a : Rd_core.Analysis.t) =
  let open Rd_core.Whatif in
  let t = a.topo in
  let nr = Array.length t.routers in
  let scenarios = ref [] in
  let add label changes = scenarios := { label; changes } :: !scenarios in
  (* Generated populations place access/edge routers last, so the last
     router is a leaf loss — the paper's canonical maintenance event. *)
  if nr > 1 then add "edge-router-out" [ Remove_router (fst t.routers.(nr - 1)) ];
  (match
     List.find_opt
       (fun (l : Rd_topo.Topology.link) -> List.length l.endpoints >= 2)
       t.links
   with
  | Some l -> add "link-out" [ Remove_link l.subnet_of_link ]
  | None -> ());
  if Array.length t.ifaces > 0 then begin
    let i = t.ifaces.(Array.length t.ifaces - 1) in
    add "iface-maintenance" [ Shutdown_interface (fst t.routers.(i.router), i.name) ]
  end;
  List.rev !scenarios

type scenario_summary = {
  label : string;
  changes : string list;
  instances_before : int;
  instances_after : int;
  split : int;
  lost_pairs : int;
  touched : string list;
  warnings : string list;
  seconds : float;
}

let summarize (o : Rd_core.Engine.outcome) =
  {
    label = o.scenario.label;
    changes = List.map Rd_core.Whatif.change_to_string o.scenario.changes;
    instances_before = o.diff.instances_before;
    instances_after = o.diff.instances_after;
    split = List.length o.diff.split_instances;
    lost_pairs = List.length o.diff.lost_reachability;
    touched = o.touched;
    warnings = o.diff.warnings;
    seconds = o.seconds;
  }

(* [exact] writes [seconds] as a [%h] hex float literal, which
   round-trips; Json's own [Float] prints %.12g, which does not. *)
let summary_to_json ?(exact = false) s =
  let strings l = Json.List (List.map (fun x -> Json.String x) l) in
  Json.Obj
    [
      ("label", Json.String s.label);
      ("changes", strings s.changes);
      ("instances_before", Json.Int s.instances_before);
      ("instances_after", Json.Int s.instances_after);
      ("split_instances", Json.Int s.split);
      ("lost_pairs", Json.Int s.lost_pairs);
      ("touched_files", strings s.touched);
      ("warnings", strings s.warnings);
      ( "seconds",
        if exact then Json.String (Printf.sprintf "%h" s.seconds) else Json.Float s.seconds );
    ]

let ( let* ) = Option.bind

let summary_of_json j =
  let field k f = Json.field k f j in
  let strings = Json.list Json.str in
  let* label = field "label" Json.str in
  let* changes = field "changes" strings in
  let* instances_before = field "instances_before" Json.int in
  let* instances_after = field "instances_after" Json.int in
  let* split = field "split_instances" Json.int in
  let* lost_pairs = field "lost_pairs" Json.int in
  let* touched = field "touched_files" strings in
  let* warnings = field "warnings" strings in
  let* seconds = field "seconds" (fun v -> Option.bind (Json.str v) float_of_string_opt) in
  Some
    { label; changes; instances_before; instances_after; split; lost_pairs; touched; warnings;
      seconds }

let whatif_json ?exact network summaries =
  Json.Obj
    [
      ("network", Json.String network);
      ("scenarios", Json.List (List.map (summary_to_json ?exact) summaries));
    ]

let whatif_of_json j =
  let* network = Json.field "network" Json.str j in
  let* summaries = Json.field "scenarios" (Json.list summary_of_json) j in
  Some (network, summaries)

let whatif_table networks =
  let row network s =
    [
      network;
      s.label;
      Printf.sprintf "%d->%d" s.instances_before s.instances_after;
      string_of_int s.split;
      string_of_int s.lost_pairs;
      string_of_int (List.length s.touched);
      Printf.sprintf "%.3f" s.seconds;
    ]
  in
  Table.render
    ~headers:[ "network"; "scenario"; "instances"; "split"; "lost pairs"; "touched"; "seconds" ]
    ~aligns:
      [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    (List.concat_map (fun (network, summaries) -> List.map (row network) summaries) networks)

let render_whatif ~engine networks =
  let buf = Buffer.create 1024 in
  heading buf "What-if sweeps (incremental engine)"
    "§8.1 maintenance scenarios, cached baselines and per-scenario fixpoints";
  Buffer.add_string buf (whatif_table networks);
  let hits, misses =
    List.fold_left
      (fun (h, m) ((_, s) : string * Cache.stats) -> (h + s.hits, m + s.misses))
      (0, 0) (Rd_core.Engine.stats engine)
  in
  bprintf buf "\ncache: %d hits, %d misses across the engine's stores\n" hits misses;
  Buffer.contents buf
