(* Tests for rd_study: the population's paper-matching invariants and the
   experiment reports.  Full-population checks are marked Slow. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let seed = 2004

let specs = Rd_study.Population.specs ~master_seed:seed

(* The full 31-network population, built once for the Slow tests, with
   the counters its build records. *)
let population_metrics = Rd_util.Metrics.create ()

let population = lazy (Study_build.networks ~metrics:population_metrics ~master_seed:seed ())

(* ----------------------------------------------------- population specs --- *)

let test_population_shape () =
  check_int "31 networks" 31 (List.length specs);
  check_int "8035 routers" 8035
    (List.fold_left (fun acc (s : Rd_study.Population.spec) -> acc + s.n) 0 specs)

let test_population_case_studies () =
  let net5 = List.find (fun (s : Rd_study.Population.spec) -> s.net_id = 5) specs in
  check_bool "net5 is the 881 compartment" true
    (net5.arch = Rd_gen.Archetype.Compartment && net5.n = 881);
  let net15 = List.find (fun (s : Rd_study.Population.spec) -> s.net_id = 15) specs in
  check_bool "net15 is the 79 restricted" true
    (net15.arch = Rd_gen.Archetype.Restricted && net15.n = 79)

let test_population_marginals () =
  let of_arch a = List.filter (fun (s : Rd_study.Population.spec) -> s.arch = a) specs in
  let backbones = of_arch Rd_gen.Archetype.Backbone in
  check_int "4 backbones" 4 (List.length backbones);
  List.iter
    (fun (s : Rd_study.Population.spec) ->
      check_bool "backbone size range" true (s.n >= 400 && s.n <= 600))
    backbones;
  let mean =
    float_of_int (List.fold_left (fun acc (s : Rd_study.Population.spec) -> acc + s.n) 0 backbones)
    /. 4.0
  in
  check_bool "backbone mean 540" true (abs_float (mean -. 540.0) < 1.0);
  let enterprises = of_arch Rd_gen.Archetype.Enterprise in
  check_int "7 enterprises" 7 (List.length enterprises);
  List.iter
    (fun (s : Rd_study.Population.spec) ->
      check_bool "enterprise sizes" true (s.n >= 19 && s.n <= 101))
    enterprises;
  (* the 20 others: median 36, max 1750, four larger than 600 *)
  let others =
    List.filter
      (fun (s : Rd_study.Population.spec) ->
        s.arch <> Rd_gen.Archetype.Backbone && s.arch <> Rd_gen.Archetype.Enterprise)
      specs
  in
  check_int "20 others" 20 (List.length others);
  let sizes = List.sort compare (List.map (fun (s : Rd_study.Population.spec) -> s.n) others) in
  check_int "median 36" 36 ((List.nth sizes 9 + List.nth sizes 10) / 2);
  check_int "max 1750" 1750 (List.nth sizes 19);
  check_int "four larger than backbones" 4 (List.length (List.filter (fun n -> n > 600) sizes))

let test_population_bgp_and_filters () =
  let no_bgp = List.filter (fun (s : Rd_study.Population.spec) -> not s.use_bgp) specs in
  check_int "3 without bgp" 3 (List.length no_bgp);
  let no_filters = List.filter (fun (s : Rd_study.Population.spec) -> not s.use_filters) specs in
  check_int "3 without filters" 3 (List.length no_filters)

let test_repository_sizes () =
  let sizes = Rd_study.Population.repository_sizes ~master_seed:seed ~count:2400 in
  check_int "2400 networks" 2400 (List.length sizes);
  let small = List.length (List.filter (fun n -> n < 10) sizes) in
  (* the repository is dominated by small networks (Fig 8) *)
  check_bool "mostly small" true (float_of_int small /. 2400.0 > 0.6);
  check_bool "all positive" true (List.for_all (fun n -> n >= 1) sizes)

(* ------------------------------------------------- single-network build --- *)

let test_build_network_net15 () =
  let spec = List.find (fun (s : Rd_study.Population.spec) -> s.net_id = 15) specs in
  let n = Rd_study.Population.build_network spec in
  check_int "instances" 6 (Rd_core.Analysis.instance_count n.analysis);
  (* experiment report runs and contains the key verdicts *)
  let report = Rd_study.Experiments.net15_case n in
  let contains needle =
    let h = report and n = needle in
    let rec go i =
      i + String.length n <= String.length h
      && (String.sub h i (String.length n) = n || go (i + 1))
    in
    go 0
  in
  check_bool "AB2->AB4 false" true (contains "AB2 host -> AB4 host: false");
  check_bool "no default" true (contains "instances holding a default route: 0");
  check_bool "intersections all empty" true (not (contains "NON-EMPTY"))

let test_generate_one_files () =
  let spec = List.find (fun (s : Rd_study.Population.spec) -> s.net_id = 10) specs in
  let files = Rd_study.Population.generate_one spec in
  check_int "file count" spec.n (List.length files);
  check_bool "anonymized names" true (List.mem_assoc "config1" files)

(* ----------------------------------------------------- full study (slow) --- *)

let test_full_study () =
  let nets = Lazy.force population in
  check_int "31 analyzed" 31 (List.length nets);
  (* §7 classification comes out exactly as the paper's *)
  let designs =
    List.map
      (fun (n : Rd_study.Population.network) -> (Rd_core.Design_class.classify n.analysis).design)
      nets
  in
  let count d = List.length (List.filter (fun x -> x = d) designs) in
  check_int "4 backbones" 4 (count Rd_core.Design_class.Backbone);
  check_int "7 enterprises" 7 (count Rd_core.Design_class.Enterprise);
  check_int "20 unclassifiable" 20 (count Rd_core.Design_class.Unclassifiable);
  (* Table 1 shape: conventional roles near 90% on both axes *)
  let total =
    List.fold_left
      (fun acc (n : Rd_study.Population.network) -> Rd_core.Roles.add acc (Rd_core.Roles.count n.analysis))
      Rd_core.Roles.zero nets
  in
  let igp_frac, ebgp_frac = Rd_core.Roles.total_conventional_fraction total in
  check_bool "igp conventional ~0.9" true (igp_frac > 0.82 && igp_frac < 0.97);
  check_bool "ebgp conventional ~0.9" true (ebgp_frac > 0.82 && ebgp_frac < 0.97);
  (* Table 3 shape: Serial dominates, FastEthernet second among physical *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (n : Rd_study.Population.network) ->
      List.iter
        (fun (ty, c) ->
          let cur = try Hashtbl.find counts ty with Not_found -> 0 in
          Hashtbl.replace counts ty (cur + c))
        (Rd_topo.Topology.interface_census n.analysis.topo))
    nets;
  let get ty = try Hashtbl.find counts ty with Not_found -> 0 in
  check_bool "serial #1" true (get Rd_topo.Itype.Serial > get Rd_topo.Itype.FastEthernet);
  check_bool "fe > atm" true (get Rd_topo.Itype.FastEthernet > get Rd_topo.Itype.ATM);
  check_bool "atm > pos" true (get Rd_topo.Itype.ATM > get Rd_topo.Itype.POS);
  (* Fig 11 shape: 28 networks have filters; >30% of them are >=40% internal *)
  let percents =
    List.filter_map
      (fun (n : Rd_study.Population.network) ->
        Rd_policy.Filter_stats.internal_percentage n.analysis.filter_stats)
      nets
  in
  check_int "28 filtered networks" 28 (List.length percents);
  let heavy = List.length (List.filter (fun p -> p >= 40.0) percents) in
  check_bool "over 30% are internal-heavy" true
    (float_of_int heavy /. float_of_int (List.length percents) > 0.30);
  (* every experiment report renders *)
  let net5 = List.find (fun (n : Rd_study.Population.network) -> n.spec.net_id = 5) nets in
  check_bool "fig4" true (String.length (Rd_study.Experiments.fig4 net5) > 0);
  check_bool "fig8" true (String.length (Rd_study.Experiments.fig8 ~master_seed:seed nets) > 0);
  let stats = List.map Rd_study.Netstat.of_network nets in
  check_bool "table1" true (String.length (Rd_study.Experiments.table1_stats stats) > 0);
  check_bool "table3" true (String.length (Rd_study.Experiments.table3_stats stats) > 0);
  check_bool "fig11" true (String.length (Rd_study.Experiments.fig11_stats stats) > 0);
  check_bool "sec7" true (String.length (Rd_study.Experiments.sec7_stats stats) > 0);
  check_bool "net5 case" true (String.length (Rd_study.Experiments.net5_case net5) > 0);
  check_bool "ablation instances" true
    (String.length (Rd_study.Experiments.ablation_instances [ net5 ]) > 0);
  check_bool "ablation external" true
    (String.length (Rd_study.Experiments.ablation_external [ net5 ]) > 0)

let test_parallel_build_deterministic () =
  (* the domain-pool build must be byte-identical to the sequential one:
     same networks, same order, same analysis summaries *)
  let subset = [ 1; 4; 8; 10; 12 ] in
  let seq = Study_build.networks ~only:subset ~jobs:1 ~master_seed:seed () in
  let par = Study_build.networks ~only:subset ~jobs:4 ~master_seed:seed () in
  check_int "same count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Rd_study.Population.network) (b : Rd_study.Population.network) ->
      check_int "net order" a.spec.net_id b.spec.net_id;
      Alcotest.(check string)
        (Printf.sprintf "net%d summary identical" a.spec.net_id)
        (Rd_core.Analysis.summary a.analysis)
        (Rd_core.Analysis.summary b.analysis))
    seq par;
  (* experiment tables built from both populations agree *)
  let stats = List.map Rd_study.Netstat.of_network in
  Alcotest.(check string) "table1 identical"
    (Rd_study.Experiments.table1_stats (stats seq))
    (Rd_study.Experiments.table1_stats (stats par));
  Alcotest.(check string) "fig11 identical"
    (Rd_study.Experiments.fig11_stats (stats seq))
    (Rd_study.Experiments.fig11_stats (stats par))

let test_traced_build_identical () =
  (* tracing and metrics are purely observational: a traced build's
     results are byte-identical to an untraced one, and the emitted
     trace is valid Chrome trace_event JSON with one "analyze" span per
     network *)
  let subset = [ 1; 8; 15 ] in
  let plain = Study_build.networks ~only:subset ~jobs:2 ~master_seed:seed () in
  let trace = Rd_util.Trace.create () in
  let metrics = Rd_util.Metrics.create () in
  let traced =
    Study_build.networks ~only:subset ~jobs:2 ~trace ~metrics ~master_seed:seed ()
  in
  List.iter2
    (fun (a : Rd_study.Population.network) (b : Rd_study.Population.network) ->
      Alcotest.(check string)
        (Printf.sprintf "net%d summary identical under tracing" a.spec.net_id)
        (Rd_core.Analysis.summary a.analysis)
        (Rd_core.Analysis.summary b.analysis))
    plain traced;
  (* the trace document reparses and counts one analyze span per network *)
  (match Rd_util.Json.of_string (Rd_util.Json.to_string (Rd_util.Trace.to_json trace)) with
   | Error e -> Alcotest.failf "trace json does not reparse: %s" e
   | Ok v -> (
     match Rd_util.Json.member "traceEvents" v with
     | Some (Rd_util.Json.List events) ->
       let analyze_spans =
         List.filter
           (fun ev -> Rd_util.Json.member "name" ev = Some (Rd_util.Json.String "analyze"))
           events
       in
       check_int "one analyze span per network" (List.length subset)
         (List.length analyze_spans);
       List.iter
         (fun ev ->
           check_bool "complete event" true
             (Rd_util.Json.member "ph" ev = Some (Rd_util.Json.String "X")))
         analyze_spans
     | _ -> Alcotest.fail "traceEvents missing"));
  (* metrics saw every network and every parsed file *)
  check_bool "analysis.networks counter" true
    (Rd_util.Metrics.counter_value metrics "analysis.networks" = Some (List.length subset));
  let files =
    List.fold_left (fun acc (n : Rd_study.Population.network) -> acc + n.spec.n) 0 traced
  in
  check_bool "parse.files counter" true
    (Rd_util.Metrics.counter_value metrics "parse.files" = Some files);
  check_bool "pool tasks counted" true
    (match Rd_util.Metrics.counter_value metrics "pool.tasks" with
     | Some n -> n > 0
     | None -> false)

let test_fail_fast_build_lowest_net_id () =
  (* two networks fail: the build re-raises the lower net id's fault on
     any worker count, after every network was attempted *)
  List.iter
    (fun jobs ->
      let faults =
        match
          Rd_util.Fault.of_spec
            "seed=5;study.network:raise:key=net8;study.network:raise:key=net4"
        with
        | Ok f -> f
        | Error e -> Alcotest.failf "fault spec: %s" e
      in
      (match Study_build.networks ~only:[ 3; 4; 8 ] ~jobs ~faults ~master_seed:seed () with
       | _ -> Alcotest.fail "a failed network must abort the build"
       | exception (Rd_util.Fault.Injected _ as e) ->
         Alcotest.(check string)
           (Printf.sprintf "jobs=%d raises net4" jobs)
           "injected fault at study.network [net4]" (Printexc.to_string e));
      check_int "both faults fired" 2 (List.length (Rd_util.Fault.injections faults)))
    [ 2; 1 ]

let test_degraded_full_study () =
  (* kill exactly one of the 31 networks: the other thirty come out
     byte-identical to a clean run, and the failure is fully described *)
  let clean = Lazy.force population in
  let metrics = Rd_util.Metrics.create () in
  let faults =
    match Rd_util.Fault.of_spec "seed=5;study.network:raise:key=net7" with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  let results =
    Rd_study.Driver.sweep ~metrics ~faults ~master_seed:seed
      (Rd_study.Driver.study ~metrics ~faults ())
  in
  check_int "31 results" 31 (List.length results);
  let items, failures = Rd_study.Population.partition results in
  let survivors = List.filter_map (fun (i : Rd_study.Driver.study_item) -> i.network) items in
  check_int "30 survivors" 30 (List.length survivors);
  (match failures with
   | [ f ] ->
     Alcotest.(check string) "net7 failed" "net7" f.spec.label;
     check_bool "site recorded" true (f.failure.site = Some "study.network");
     Alcotest.(check string) "stable error" "injected fault at study.network [net7]"
       (Printexc.to_string f.failure.exn)
   | l -> Alcotest.failf "expected exactly one failure, got %d" (List.length l));
  List.iter2
    (fun (c : Rd_study.Population.network) (s : Rd_study.Population.network) ->
      check_int "net order preserved" c.spec.net_id s.spec.net_id;
      Alcotest.(check string)
        (Printf.sprintf "net%d byte-identical" c.spec.net_id)
        (Rd_core.Analysis.summary c.analysis)
        (Rd_core.Analysis.summary s.analysis))
    (List.filter (fun (n : Rd_study.Population.network) -> n.spec.net_id <> 7) clean)
    survivors;
  check_bool "network.degraded = 1" true
    (Rd_util.Metrics.counter_value metrics "network.degraded" = Some 1)

let test_study_deterministic () =
  (* the same master seed regenerates identical configuration text *)
  let spec = List.find (fun (s : Rd_study.Population.spec) -> s.net_id = 13) specs in
  check_bool "files identical across builds" true
    (Rd_study.Population.generate_one spec = Rd_study.Population.generate_one spec);
  (* and a different master seed changes them *)
  let specs2 = Rd_study.Population.specs ~master_seed:(seed + 1) in
  let spec2 = List.find (fun (s : Rd_study.Population.spec) -> s.net_id = 13) specs2 in
  check_bool "different master seed differs" true
    (Rd_study.Population.generate_one spec <> Rd_study.Population.generate_one spec2)

let test_scorecard () =
  (* the scorecard report passes every criterion on a freshly built
     population *)
  let nets = Lazy.force population in
  let report = Rd_study.Experiments.scorecard ~master_seed:seed nets in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length report
      && (String.sub report i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_bool "no failures" false (contains "FAIL");
  check_bool "summary present" true (contains "20/20 criteria pass")

(* ------------------------------------------------- netstat + checkpoint --- *)

(* Small, fast networks: net4 (6 routers), net10 (4), net12 (12), net26 (9). *)
let small_subset = [ 4; 10; 12; 26 ]

let test_netstat_codec_roundtrip () =
  (* every per-network statistic survives JSON print + parse exactly —
     including floats, which the codec hex-encodes because the JSON
     printer's %.12g is lossy *)
  let nets = Study_build.networks ~only:small_subset ~jobs:1 ~master_seed:seed () in
  let stats = List.map Rd_study.Netstat.of_network nets in
  let roundtripped =
    List.map
      (fun st ->
        let bytes = Rd_util.Json.to_string (Rd_study.Netstat.to_json st) in
        match Rd_util.Json.of_string bytes with
        | Error e -> Alcotest.failf "netstat json did not reparse: %s" e
        | Ok j -> (
          match Rd_study.Netstat.of_json j with
          | Some st' -> st'
          | None -> Alcotest.fail "netstat decode returned None"))
      stats
  in
  List.iter2
    (fun (a : Rd_study.Netstat.t) b ->
      check_bool (Printf.sprintf "%s structurally identical" a.label) true (a = b))
    stats roundtripped;
  (* foreign payloads decode to None *)
  check_bool "wrong shape is None" true
    (Rd_study.Netstat.of_json (Rd_util.Json.Obj [ ("x", Rd_util.Json.Int 1) ]) = None);
  (* the aggregate renderers see no difference between fresh and
     replayed stats — the byte-identity --resume relies on *)
  Alcotest.(check string) "sec7 identical"
    (Rd_study.Experiments.sec7_stats stats)
    (Rd_study.Experiments.sec7_stats roundtripped);
  Alcotest.(check string) "table1 identical"
    (Rd_study.Experiments.table1_stats stats)
    (Rd_study.Experiments.table1_stats roundtripped);
  Alcotest.(check string) "table3 identical"
    (Rd_study.Experiments.table3_stats stats)
    (Rd_study.Experiments.table3_stats roundtripped);
  Alcotest.(check string) "fig11 identical"
    (Rd_study.Experiments.fig11_stats stats)
    (Rd_study.Experiments.fig11_stats roundtripped);
  List.iter2
    (fun (n : Rd_study.Population.network) st ->
      Alcotest.(check string) "block identical"
        (Printf.sprintf "--- %s (%s, %d routers) ---\n%s" n.spec.label
           (Rd_gen.Archetype.to_string n.spec.arch) n.spec.n
           (Rd_core.Analysis.summary n.analysis))
        (Rd_study.Netstat.render_block st))
    nets roundtripped

let with_checkpoint_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rd-ckpt-test-%d" (Hashtbl.hash (Rd_util.Trace.now ())))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let render_study_items items =
  String.concat ""
    (List.map
       (fun (i : Rd_study.Driver.study_item) -> Rd_study.Netstat.render_block i.stat)
       items)
  ^ Rd_study.Experiments.table1_stats
      (List.map (fun (i : Rd_study.Driver.study_item) -> i.stat) items)

let test_driver_study_resume_identical () =
  with_checkpoint_dir @@ fun dir ->
  let oks results =
    List.map
      (function
        | Ok (i : Rd_study.Driver.study_item) -> i
        | Error (f : Rd_study.Population.failure) ->
          Alcotest.failf "%s failed: %s" f.spec.label (Printexc.to_string f.failure.exn))
      results
  in
  (* pass 1: cold, persists every completed network *)
  let ck1 = Rd_study.Checkpoint.open_dir dir in
  let r1 =
    oks
      (Rd_study.Driver.sweep ~jobs:1 ~checkpoint:ck1 ~only:small_subset ~master_seed:seed
         (Rd_study.Driver.study ~jobs:1 ()))
  in
  check_int "all persisted" (List.length small_subset)
    (Rd_util.Store.stats (Rd_study.Checkpoint.store ck1)).writes;
  check_bool "fresh items carry the analysis" true
    (List.for_all (fun (i : Rd_study.Driver.study_item) -> i.network <> None) r1);
  (* pass 2: resumed, replays every network from the store *)
  let ck2 = Rd_study.Checkpoint.open_dir dir in
  let r2 =
    oks
      (Rd_study.Driver.sweep ~jobs:1 ~checkpoint:ck2 ~resume:true ~only:small_subset
         ~master_seed:seed (Rd_study.Driver.study ~jobs:1 ()))
  in
  let st2 = Rd_util.Store.stats (Rd_study.Checkpoint.store ck2) in
  check_int "every network replayed" (List.length small_subset) st2.hits;
  check_int "nothing rebuilt" 0 st2.writes;
  check_bool "replayed items carry no analysis" true
    (List.for_all (fun (i : Rd_study.Driver.study_item) -> i.network = None) r2);
  Alcotest.(check string) "resumed report byte-identical" (render_study_items r1)
    (render_study_items r2);
  (* resume under a different seed misses: keys cover the spec *)
  let ck3 = Rd_study.Checkpoint.open_dir dir in
  let r3 =
    Rd_study.Driver.sweep ~jobs:1 ~checkpoint:ck3 ~resume:true ~only:[ 10 ]
      ~master_seed:(seed + 1) (Rd_study.Driver.study ~jobs:1 ())
  in
  check_int "different seed misses" 0 (Rd_util.Store.stats (Rd_study.Checkpoint.store ck3)).hits;
  check_int "and rebuilds" 1 (List.length (oks r3))

let test_driver_crosscheck_resume_identical () =
  with_checkpoint_dir @@ fun dir ->
  let subset = [ 10; 26 ] in
  let reports results =
    List.map
      (function
        | Ok (rep : Rd_check.Crosscheck.report) -> rep
        | Error (f : Rd_study.Population.failure) ->
          Alcotest.failf "%s failed: %s" f.spec.label (Printexc.to_string f.failure.exn))
      results
  in
  let ck1 = Rd_study.Checkpoint.open_dir dir in
  let r1 =
    reports
      (Rd_study.Driver.sweep ~jobs:1 ~checkpoint:ck1 ~only:subset ~master_seed:seed
         (Rd_study.Driver.crosscheck ()))
  in
  let ck2 = Rd_study.Checkpoint.open_dir dir in
  let r2 =
    reports
      (Rd_study.Driver.sweep ~jobs:1 ~checkpoint:ck2 ~resume:true ~only:subset
         ~master_seed:seed (Rd_study.Driver.crosscheck ()))
  in
  check_int "replayed" (List.length subset)
    (Rd_util.Store.stats (Rd_study.Checkpoint.store ck2)).hits;
  Alcotest.(check string) "resumed crosscheck report byte-identical"
    (Rd_check.Crosscheck.render r1)
    (Rd_check.Crosscheck.render r2);
  (* a different invariant selection must miss (it joins the key) *)
  let ck3 = Rd_study.Checkpoint.open_dir dir in
  ignore
    (Rd_study.Driver.sweep ~jobs:1 ~checkpoint:ck3 ~resume:true ~only:subset
       ~master_seed:seed
       (Rd_study.Driver.crosscheck ~invariants:[ "sim-subset-static" ] ()));
  check_int "different invariants miss" 0
    (Rd_util.Store.stats (Rd_study.Checkpoint.store ck3)).hits

let test_driver_task_timeout_degrades () =
  (* an immediate per-task deadline degrades every network to a
     Timed_out failure row; nothing escapes, nothing is persisted *)
  with_checkpoint_dir @@ fun dir ->
  let ck = Rd_study.Checkpoint.open_dir dir in
  let results =
    Rd_study.Driver.sweep ~jobs:1 ~task_timeout:0.0 ~checkpoint:ck ~only:[ 10 ]
      ~master_seed:seed (Rd_study.Driver.study ~jobs:1 ())
  in
  (match results with
   | [ Error (f : Rd_study.Population.failure) ] ->
     Alcotest.(check string) "net10 degraded" "net10" f.spec.label;
     (match f.failure.cause with
      | Rd_util.Pool.Timed_out (Rd_util.Cancel.Deadline _) -> ()
      | _ -> Alcotest.fail "expected Timed_out (Deadline _)");
     check_bool "elapsed recorded" true (f.failure.elapsed >= 0.0)
   | _ -> Alcotest.fail "expected exactly one failure");
  check_int "nothing persisted" 0 (Rd_util.Store.stats (Rd_study.Checkpoint.store ck)).writes

let test_driver_whatif_resume_rows_identical () =
  with_checkpoint_dir @@ fun dir ->
  (* one shared engine per run, swept sequentially as rdna does; the
     engine's cache-totals line reflects only what this process
     computed, so the comparison is over the per-network records *)
  let run ?resume ck =
    let engine = Rd_core.Engine.create () in
    let networks, failures =
      Rd_study.Population.partition
        (Rd_study.Driver.sweep ~jobs:1 ~checkpoint:ck ?resume ~only:[ 10 ] ~master_seed:seed
           (Rd_study.Driver.whatif engine))
    in
    check_int "no failures" 0 (List.length failures);
    networks
  in
  let json networks =
    String.concat "\n"
      (List.map
         (fun (label, s) -> Rd_util.Json.to_string (Rd_study.Experiments.whatif_json label s))
         networks)
  in
  let ck1 = Rd_study.Checkpoint.open_dir dir in
  let first = run ck1 in
  let ck2 = Rd_study.Checkpoint.open_dir dir in
  let resumed = run ~resume:true ck2 in
  check_int "replayed" 1 (Rd_util.Store.stats (Rd_study.Checkpoint.store ck2)).hits;
  Alcotest.(check string) "scenario table identical"
    (Rd_study.Experiments.whatif_table first)
    (Rd_study.Experiments.whatif_table resumed);
  Alcotest.(check string) "JSON records identical, seconds included" (json first)
    (json resumed);
  (* %.12g and %.3f renderings would hide a lossy codec *)
  check_bool "summaries replay bit for bit" true (first = resumed);
  (* the swept counts are what a fresh engine reports for net10 *)
  let spec = List.find (fun (s : Rd_study.Population.spec) -> s.net_id = 10) specs in
  let engine = Rd_core.Engine.create () in
  let net =
    Rd_core.Engine.load engine ~name:spec.label (Rd_study.Population.generate_one spec)
  in
  let fresh =
    List.map Rd_study.Experiments.summarize
      (Rd_core.Engine.run_scenarios engine net
         (Rd_study.Experiments.scenarios_of_analysis net.analysis))
  in
  let counts (s : Rd_study.Experiments.scenario_summary) =
    ( s.label,
      (s.changes, s.instances_before, s.instances_after),
      (s.split, s.lost_pairs, s.touched, s.warnings) )
  in
  Alcotest.(check (list string)) "one network, net10" [ "net10" ] (List.map fst first);
  check_bool "counts equal a fresh engine's" true
    (List.map counts (snd (List.hd first)) = List.map counts fresh)

(* The netlint sweep builds and lints inside each pooled task: its report
   is the per-network [run_analysis] over the built population, at any
   pool size. *)
let test_driver_netlint_sweep_identical () =
  let expected =
    Rd_util.Json.to_string
      (Rd_core.Netlint.to_json
         (List.map
            (fun (n : Rd_study.Population.network) ->
              Rd_core.Netlint.run_analysis ~files:(Rd_study.Population.generate_one n.spec)
                n.analysis)
            (Lazy.force population)))
  in
  List.iter
    (fun jobs ->
      let reports, failures =
        Rd_study.Population.partition
          (Rd_study.Driver.sweep ~jobs ~master_seed:seed (Rd_study.Driver.netlint ~jobs ()))
      in
      check_int "no failures" 0 (List.length failures);
      Alcotest.(check string)
        (Printf.sprintf "netlint sweep byte-identical at jobs %d" jobs)
        expected
        (Rd_util.Json.to_string (Rd_core.Netlint.to_json reports)))
    [ 1; 2 ]

let test_driver_netlint_task_timeout () =
  (* the per-network token covers analysis and lint: an immediate
     deadline degrades every network to one Timed_out row *)
  let results =
    Rd_study.Driver.sweep ~jobs:1 ~task_timeout:0.0 ~master_seed:seed
      (Rd_study.Driver.netlint ())
  in
  check_int "one row per network" (List.length specs) (List.length results);
  List.iter
    (function
      | Error (f : Rd_study.Population.failure) -> (
        match f.failure.cause with
        | Rd_util.Pool.Timed_out _ -> ()
        | _ -> Alcotest.failf "%s: expected Timed_out" f.spec.label)
      | Ok (r : Rd_core.Netlint.report) -> Alcotest.failf "%s: not timed out" r.network)
    results

(* ------------------------------------------------------------------ lint --- *)

let test_full_study_lints_clean () =
  (* every file of every study network lints without raising and without
     error-severity findings (warnings are tolerated) *)
  List.iter
    (fun (s : Rd_study.Population.spec) ->
      let diags = Rd_core.Lint.lint_files (Rd_study.Population.generate_one s) in
      let errors = List.filter (fun (d : Rd_config.Diag.t) -> d.severity = Rd_config.Diag.Error) diags in
      if errors <> [] then
        Alcotest.failf "%s: %s" s.label (Rd_config.Diag.to_string (List.hd errors)))
    specs

let test_full_study_design_counts () =
  (* per-code design findings over the 31 networks, pinned to the counts
     the §8.1 checks had before they joined Lint *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (n : Rd_study.Population.network) ->
      List.iter
        (fun (d : Rd_config.Diag.t) ->
          Hashtbl.replace counts d.code (1 + Option.value ~default:0 (Hashtbl.find_opt counts d.code)))
        (Rd_core.Lint.design n.analysis))
    (Lazy.force population);
  Alcotest.(check (list (pair string int)))
    "per-code counts"
    [
      ("lint-duplicate-address", 4);
      ("lint-half-covered-link", 1541);
      ("lint-isolated-process", 9350);
      ("lint-shared-static-destination", 13);
      ("lint-unfiltered-edge-interface", 929);
      ("lint-unfiltered-peering", 7296);
    ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq counts)))

let test_full_study_parse_counters () =
  (* the parse layer's work over the 8,035 study files: physical lines,
     command lines and unrecognised commands, as the lexer counts them *)
  ignore (Lazy.force population);
  Alcotest.(check (list (pair string (option int))))
    "parse counters"
    [
      ("parse.files", Some 8035);
      ("parse.lines", Some 879_753);
      ("parse.commands", Some 729_841);
      ("parse.unknown_lines", Some 0);
    ]
    (List.map
       (fun k -> (k, Rd_util.Metrics.counter_value population_metrics k))
       [ "parse.files"; "parse.lines"; "parse.commands"; "parse.unknown_lines" ])

let test_full_study_lexes_as_reference () =
  List.iter
    (fun (s : Rd_study.Population.spec) ->
      List.iter
        (fun (name, text) ->
          if Rd_config.Lexer.lines_of_string text <> (Lexer_ref.lines_of_string text, Lexer_ref.stats text)
          then Alcotest.failf "%s %s: one-pass lexer differs from the reference" s.label name)
        (Rd_study.Population.generate_one s))
    specs

let () =
  Alcotest.run "rd_study"
    [
      ( "population",
        [
          Alcotest.test_case "shape" `Quick test_population_shape;
          Alcotest.test_case "case studies placed" `Quick test_population_case_studies;
          Alcotest.test_case "size marginals" `Quick test_population_marginals;
          Alcotest.test_case "bgp/filter marginals" `Quick test_population_bgp_and_filters;
          Alcotest.test_case "repository sizes" `Quick test_repository_sizes;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "netstat codec roundtrip" `Quick test_netstat_codec_roundtrip;
          Alcotest.test_case "study resume byte-identical" `Quick
            test_driver_study_resume_identical;
          Alcotest.test_case "crosscheck resume byte-identical" `Quick
            test_driver_crosscheck_resume_identical;
          Alcotest.test_case "task timeout degrades" `Quick test_driver_task_timeout_degrades;
          Alcotest.test_case "whatif resume rows identical" `Quick
            test_driver_whatif_resume_rows_identical;
        ] );
      ( "networks",
        [
          Alcotest.test_case "net15 build and report" `Quick test_build_network_net15;
          Alcotest.test_case "generate_one" `Quick test_generate_one_files;
        ] );
      ( "full study",
        [
          Alcotest.test_case "paper invariants" `Slow test_full_study;
          Alcotest.test_case "parallel build determinism" `Quick test_parallel_build_deterministic;
          Alcotest.test_case "traced build identical + trace json" `Quick test_traced_build_identical;
          Alcotest.test_case "fail-fast build raises lowest net id" `Quick
            test_fail_fast_build_lowest_net_id;
          Alcotest.test_case "degraded full study" `Slow test_degraded_full_study;
          Alcotest.test_case "determinism" `Quick test_study_deterministic;
          Alcotest.test_case "scorecard" `Slow test_scorecard;
          Alcotest.test_case "all 31 networks lint clean" `Slow test_full_study_lints_clean;
          Alcotest.test_case "design rule counts" `Slow test_full_study_design_counts;
          Alcotest.test_case "parse counters" `Slow test_full_study_parse_counters;
          Alcotest.test_case "lexer = reference lexer" `Slow test_full_study_lexes_as_reference;
          Alcotest.test_case "netlint sweep byte-identical" `Slow
            test_driver_netlint_sweep_identical;
          Alcotest.test_case "netlint task timeout degrades" `Quick
            test_driver_netlint_task_timeout;
        ] );
    ]
