(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   from the synthetic 31-network study (the substitution for the
   proprietary configuration corpus; see DESIGN.md §2):

     Figure 4   net5 configuration size distribution
     Figure 8   network size distribution (study vs repository)
     Table 1    intra-/inter-domain protocol roles
     Table 3    interface-type census
     Figure 11  packet-filter placement CDF
     §7         design classification
     §5.1/§6.1  net5 case study (Figures 9, 10)
     §6.2       net15 case study (Figure 12, Table 2)
     plus the three ablations from DESIGN.md §5.

   Part 2 runs Bechamel micro-benchmarks of the pipeline stages (one
   Test.make per stage). *)

let master_seed = 2004

let line = String.make 78 '='

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* --------------------------------------------------------------- args --- *)

let jobs = ref (Rd_util.Pool.default_jobs ())
let json_path = ref ""
let trace_path = ref ""
let metrics_flag = ref false
let metrics_json_path = ref ""
let only_reach = ref false
let reach_json_path = ref ""
let only_whatif = ref false
let whatif_json_path = ref ""
let only_netlint = ref false
let netlint_json_path = ref ""
let deadline = ref 0.0
let task_timeout = ref 0.0

let () =
  Arg.parse
    [
      ("-j", Arg.Set_int jobs, "N  worker domains for the study build (default RDNA_JOBS or cores)");
      ("--jobs", Arg.Set_int jobs, "N  same as -j");
      ("--json", Arg.Set_string json_path, "FILE  write machine-readable results to FILE");
      ("--trace", Arg.Set_string trace_path,
       "FILE  write the instrumented build's Chrome trace_event JSON to FILE");
      ("--metrics", Arg.Set metrics_flag, " print the instrumented build's metrics registry");
      ("--metrics-json", Arg.Set_string metrics_json_path,
       "FILE  write the instrumented build's metrics snapshot as JSON to FILE");
      ("--only-reach", Arg.Set only_reach,
       " run only the reachability/prefix-set kernel bench (skip experiments and bechamel)");
      ("--reach-json", Arg.Set_string reach_json_path,
       "FILE  write the reachability/prefix-set kernel bench results as JSON to FILE");
      ("--only-whatif", Arg.Set only_whatif,
       " run only the cold-vs-warm what-if sweep bench (skip experiments and bechamel)");
      ("--whatif-json", Arg.Set_string whatif_json_path,
       "FILE  write the what-if sweep bench results as JSON to FILE");
      ("--only-netlint", Arg.Set only_netlint,
       " run only the cold-vs-warm network-wide lint bench (skip experiments and bechamel)");
      ("--netlint-json", Arg.Set_string netlint_json_path,
       "FILE  write the netlint bench results as JSON to FILE");
      ("--deadline", Arg.Set_float deadline,
       "SEC  whole-run budget: networks still unbuilt after SEC seconds degrade to \
        failure rows and the bench exits 1");
      ("--task-timeout", Arg.Set_float task_timeout,
       "SEC  per-network build budget, clocked from each network's start");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "bench [-j N] [--json FILE] [--trace FILE] [--metrics] [--metrics-json FILE] [--only-reach] [--reach-json FILE] [--only-whatif] [--whatif-json FILE] [--only-netlint] [--netlint-json FILE] [--deadline SEC] [--task-timeout SEC]"

(* [--deadline]/[--task-timeout] route the study build through the
   supervised keep-going path; a degraded population is a hard failure
   for the bench (every table needs all 31 networks), reported with the
   same failed-network table rdna prints.  Without the flags the build
   is the historical fail-fast one, byte-identical timing included. *)
let root_cancel =
  if !deadline > 0.0 then Some (Rd_util.Cancel.create ~deadline:!deadline ()) else None

let build_population ?trace ?metrics ~jobs () =
  let timeout = if !task_timeout > 0.0 then Some !task_timeout else None in
  match (root_cancel, timeout) with
  | None, None -> Rd_study.Population.build ?trace ?metrics ~jobs ~master_seed ()
  | cancel, task_timeout ->
    let results =
      Rd_study.Population.build_results ?trace ?metrics ?cancel ?task_timeout ~jobs
        ~master_seed ()
    in
    let nets, failures = Rd_study.Population.partition results in
    if failures <> [] then begin
      print_string
        (Rd_study.Population.render_failures ~total:(List.length results) failures);
      exit 1
    end;
    nets

(* ------------------------------------------------------------- part 1 --- *)

(* Build the study three times — sequentially, across the domain pool,
   and across the pool with tracing and metrics on — to measure the
   parallel speedup and the tracer overhead, and to assert all three
   outputs are byte-identical. *)
let build_study () =
  let jobs = max 1 !jobs in
  Printf.printf "building the 31-network study population (seed %d)...\n%!" master_seed;
  let t0 = Rd_util.Trace.now () in
  let nets_seq = build_population ~jobs:1 () in
  let seq_s = Rd_util.Trace.now () -. t0 in
  let t1 = Rd_util.Trace.now () in
  let nets = build_population ~jobs () in
  let par_s = Rd_util.Trace.now () -. t1 in
  let trace = Rd_util.Trace.create () in
  let metrics = Rd_util.Metrics.create () in
  let t2 = Rd_util.Trace.now () in
  let nets_obs = build_population ~trace ~metrics ~jobs () in
  let obs_s = Rd_util.Trace.now () -. t2 in
  let summaries ns =
    List.map (fun (n : Rd_study.Population.network) -> Rd_core.Analysis.summary n.analysis) ns
  in
  let identical = summaries nets_seq = summaries nets in
  let identical_obs = summaries nets_seq = summaries nets_obs in
  let overhead = (obs_s /. par_s) -. 1.0 in
  section "Study build: sequential vs parallel vs instrumented";
  Rd_util.Table.print
    ~headers:[ "build"; "jobs"; "wall (s)"; "speedup" ]
    ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right; Rd_util.Table.Right ]
    [
      [ "sequential"; "1"; Printf.sprintf "%.2f" seq_s; "1.00x" ];
      [ "parallel"; string_of_int jobs; Printf.sprintf "%.2f" par_s;
        Printf.sprintf "%.2fx" (seq_s /. par_s) ];
      [ "parallel+trace+metrics"; string_of_int jobs; Printf.sprintf "%.2f" obs_s;
        Printf.sprintf "%.2fx" (seq_s /. obs_s) ];
    ];
  Printf.printf "cores available: %d; outputs byte-identical: %b (instrumented: %b)\n"
    (Domain.recommended_domain_count ()) identical identical_obs;
  Printf.printf "tracer+metrics overhead: %+.1f%% of the untraced parallel build (target < 5%%)\n"
    (100.0 *. overhead);
  if overhead > 0.05 then
    Printf.printf "WARNING: tracer overhead above the 5%% target\n";
  if not identical then failwith "parallel study build diverged from sequential build";
  if not identical_obs then failwith "instrumented study build diverged from sequential build";
  section "Per-stage wall time (instrumented build, summed across networks)";
  print_string (Rd_util.Trace.render_stages trace);
  if !metrics_flag then begin
    section "Metrics registry (instrumented build)";
    print_string (Rd_util.Metrics.render metrics)
  end;
  if !trace_path <> "" then begin
    Rd_util.Trace.to_file trace !trace_path;
    Printf.printf "trace written to %s (%d spans)\n" !trace_path
      (List.length (Rd_util.Trace.spans trace))
  end;
  if !metrics_json_path <> "" then begin
    Rd_util.Json.to_file !metrics_json_path (Rd_util.Metrics.to_json metrics);
    Printf.printf "metrics written to %s\n" !metrics_json_path
  end;
  if !json_path <> "" then begin
    let stages =
      List.map
        (fun (stage, s, n) ->
          Rd_util.Json.Obj
            [ ("name", Rd_util.Json.String stage); ("total_s", Rd_util.Json.Float s);
              ("spans", Rd_util.Json.Int n) ])
        (Rd_util.Trace.stage_table trace)
    in
    Rd_util.Json.to_file !json_path
      (Rd_util.Json.Obj
         [
           ("seed", Rd_util.Json.Int master_seed);
           ("jobs", Rd_util.Json.Int jobs);
           ("cores", Rd_util.Json.Int (Domain.recommended_domain_count ()));
           ("networks", Rd_util.Json.Int (List.length nets));
           ("sequential_build_s", Rd_util.Json.Float seq_s);
           ("parallel_build_s", Rd_util.Json.Float par_s);
           ("instrumented_build_s", Rd_util.Json.Float obs_s);
           ("trace_overhead", Rd_util.Json.Float overhead);
           ("speedup", Rd_util.Json.Float (seq_s /. par_s));
           ("identical", Rd_util.Json.Bool (identical && identical_obs));
           ("stages", Rd_util.Json.List stages);
         ]);
    Printf.printf "json results written to %s\n" !json_path
  end;
  nets

let run_experiments () =
  section "PART 1: PAPER EXPERIMENT REGENERATION";
  let nets = build_study () in
  let routers =
    List.fold_left (fun acc (n : Rd_study.Population.network) -> acc + n.spec.n) 0 nets
  in
  Printf.printf "%d networks, %d routers analyzed\n%!" (List.length nets) routers;
  let find id = List.find (fun (n : Rd_study.Population.network) -> n.spec.net_id = id) nets in
  let net5 = find 5 and net15 = find 15 in
  section "Figure 4";
  print_string (Rd_study.Experiments.fig4 net5);
  section "Figure 8";
  print_string (Rd_study.Experiments.fig8 ~master_seed nets);
  section "Table 1";
  print_string (Rd_study.Experiments.table1 nets);
  section "Table 3";
  print_string (Rd_study.Experiments.table3 nets);
  section "Figure 11";
  print_string (Rd_study.Experiments.fig11 nets);
  section "Section 7";
  print_string (Rd_study.Experiments.sec7 nets);
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
  print_string (Rd_study.Experiments.scorecard ~master_seed nets);
  nets

(* -------------------------------------------- reachability kernel bench --- *)

module Pset = Rd_addr.Prefix_set
module Pref = Rd_addr.Prefix_set_ref

let to_ref s = Pref.of_prefixes (Pset.to_prefixes s)

(* The pre-PR reachability stage, reconstructed exactly: the legacy
   whole-edge-list Gauss–Seidel sweep over structural (non-hash-consed,
   non-memoized) prefix sets, the assoc-list [advertised] accumulation
   that lived inside [compute], and the per-query [external_routes_of]
   that re-folded [internal_space] on every call.  Origins and per-edge
   filter sets are converted outside the timed region (a gift to the
   baseline — the old code recomputed origins inside [compute]). *)
let ref_fixpoint (g : Rd_routing.Instance_graph.t) origins filters =
  let routes = Array.map Fun.id origins in
  let edges = Array.of_list g.edges in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    changed := false;
    incr iterations;
    Array.iteri
      (fun k (e : Rd_routing.Instance_graph.edge) ->
        let inflow =
          match e.src with
          | Rd_routing.Instance_graph.External _ -> Pref.full
          | Rd_routing.Instance_graph.Inst i -> routes.(i)
        in
        match e.dst with
        | Rd_routing.Instance_graph.External _ -> ()
        | Rd_routing.Instance_graph.Inst d ->
          let add = Pref.inter filters.(k) inflow in
          let merged = Pref.union routes.(d) add in
          if not (Pref.equal merged routes.(d)) then begin
            routes.(d) <- merged;
            changed := true
          end)
      edges
  done;
  (routes, !iterations)

(* One pre-PR pass over a network: fixpoint + the advertised assoc-list
   fold + an [external_routes_of] query per instance, each re-folding the
   internal space like the old accessor did. *)
let ref_reach_pass (g : Rd_routing.Instance_graph.t) origins filters k =
  let routes, iterations = ref_fixpoint g origins filters in
  let _, advertised =
    List.fold_left
      (fun (j, acc) (e : Rd_routing.Instance_graph.edge) ->
        match (e.src, e.dst) with
        | Rd_routing.Instance_graph.Inst i, Rd_routing.Instance_graph.External a ->
          let out = Pref.inter filters.(j) routes.(i) in
          let cur = try List.assoc a acc with Not_found -> Pref.empty in
          (j + 1, (a, Pref.union cur out) :: List.remove_assoc a acc)
        | _ -> (j + 1, acc))
      (0, []) g.edges
  in
  ignore (Sys.opaque_identity advertised);
  for _ = 1 to k do
    Array.iteri
      (fun i _ ->
        let internal = Array.fold_left Pref.union Pref.empty origins in
        ignore (Sys.opaque_identity (Pref.diff routes.(i) internal)))
      routes
  done;
  (routes, iterations)

(* One kernel pass with the same query load against the new API. *)
let kernel_reach_pass compute_fn g k =
  let r : Rd_reach.Reachability.t = compute_fn g in
  for _ = 1 to k do
    Array.iteri
      (fun i _ ->
        ignore (Sys.opaque_identity (Rd_reach.Reachability.external_routes_of r i)))
      r.Rd_reach.Reachability.routes
  done;
  r

let time f =
  let t0 = Rd_util.Trace.now () in
  let r = f () in
  (r, Rd_util.Trace.now () -. t0)

let time_op ~iters f =
  let t0 = Rd_util.Trace.now () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Rd_util.Trace.now () -. t0) *. 1e9 /. float_of_int iters

let run_reach_bench nets =
  section "Reachability fixpoint: hash-consed worklist vs legacy baselines";
  let graphs =
    List.map (fun (n : Rd_study.Population.network) -> n.analysis.Rd_core.Analysis.graph) nets
  in
  (* Reference inputs (structural sets) prepared outside the timed region.
     The start array is [initial_routes] — origins plus default-originate
     seeding — so the reference lands on the same fixpoint as [compute]. *)
  let ref_inputs =
    List.map
      (fun (g : Rd_routing.Instance_graph.t) ->
        let origins = Array.map to_ref (Rd_reach.Reachability.initial_routes g) in
        let filters =
          Array.of_list
            (List.map
               (fun (e : Rd_routing.Instance_graph.edge) ->
                 to_ref (Rd_policy.Route_filter.permitted e.filter))
               g.edges)
        in
        (g, origins, filters))
      graphs
  in
  (* The workload is the study's reachability stage: the pipeline
     recomputes reachability against each network's graph several times
     (experiments, scorecard checks, the metrics pass, what-if analyses),
     and after each fixpoint queries the external route space per
     instance — §6.2's OSPF load bound does exactly that.  [reps] models
     the repeated passes; [queries] the per-instance query fan-out.
     Measure the worklist first (cold caches in this domain), then the
     hash-consed round sweep, then the pre-PR structural implementation. *)
  let reps = 3 and queries = 2 in
  let metrics = Rd_util.Metrics.create () in
  Gc.compact ();
  let work_results, work_s =
    time (fun () ->
        let results = ref [] in
        for r = 1 to reps do
          let rs =
            List.map
              (fun g -> kernel_reach_pass (Rd_reach.Reachability.compute ~metrics) g queries)
              graphs
          in
          if r = 1 then results := rs
        done;
        !results)
  in
  Gc.compact ();
  let rounds_results, rounds_s =
    time (fun () ->
        let results = ref [] in
        for r = 1 to reps do
          let rs =
            List.map (fun g -> kernel_reach_pass Rd_reach.Reachability.compute_rounds g queries) graphs
          in
          if r = 1 then results := rs
        done;
        !results)
  in
  Gc.compact ();
  let ref_results, ref_s =
    time (fun () ->
        let results = ref [] in
        for r = 1 to reps do
          let rs = List.map (fun (g, o, f) -> ref_reach_pass g o f queries) ref_inputs in
          if r = 1 then results := rs
        done;
        !results)
  in
  (* Cross-check: the worklist landed on the same fixpoint as the pre-PR
     structural sweep, on every network. *)
  List.iter2
    (fun (w : Rd_reach.Reachability.t) (ref_routes, _) ->
      Array.iteri
        (fun i s ->
          if not (Pref.equal (to_ref s) ref_routes.(i)) then
            failwith "worklist fixpoint diverged from the structural reference")
        w.routes)
    work_results ref_results;
  let sum_iters f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let work_iters = sum_iters (fun (r : Rd_reach.Reachability.t) -> r.iterations) work_results in
  let rounds_iters =
    sum_iters (fun (r : Rd_reach.Reachability.t) -> r.iterations) rounds_results
  in
  let ref_iters = sum_iters snd ref_results in
  let counter name = Option.value ~default:0 (Rd_util.Metrics.counter_value metrics name) in
  let hits = counter "pset.memo_hits" and misses = counter "pset.memo_misses" in
  let nodes = counter "pset.nodes" in
  let hit_rate =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  Printf.printf
    "workload: %d reachability passes over %d networks, %d external-route query sweeps per pass\n"
    reps (List.length graphs) queries;
  Rd_util.Table.print
    ~headers:[ "fixpoint variant"; "networks"; "iterations"; "wall (s)"; "speedup" ]
    ~aligns:
      [ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right; Rd_util.Table.Right;
        Rd_util.Table.Right ]
    [
      [ "structural rounds (pre-kernel)"; string_of_int (List.length graphs);
        string_of_int ref_iters; Printf.sprintf "%.3f" ref_s; "1.00x" ];
      [ "hash-consed worklist (cold start)"; string_of_int (List.length graphs);
        string_of_int work_iters; Printf.sprintf "%.3f" work_s;
        Printf.sprintf "%.2fx" (ref_s /. work_s) ];
      [ "hash-consed rounds (warm caches)"; string_of_int (List.length graphs);
        string_of_int rounds_iters; Printf.sprintf "%.3f" rounds_s;
        Printf.sprintf "%.2fx" (ref_s /. rounds_s) ];
    ];
  Printf.printf
    "kernel during worklist pass: %d nodes allocated, %d memo hits / %d misses (%.1f%% hit rate)\n"
    nodes hits misses (100.0 *. hit_rate);
  (* Prefix-set operation micro-benchmarks on study-derived sets: the
     kernel amortizes repeated algebra to a cache probe; the structural
     reference rebuilds every time. *)
  let all_origins = List.concat_map (fun g -> Array.to_list (Rd_reach.Reachability.origins_bulk g)) graphs in
  let a =
    List.fold_left Pset.union Pset.empty
      (List.filteri (fun i _ -> i mod 2 = 0) all_origins)
  in
  let b =
    List.fold_left Pset.union Pset.empty
      (List.filteri (fun i _ -> i mod 2 = 1) all_origins)
  in
  let ra = to_ref a and rb = to_ref b in
  (* semantically equal, independently rebuilt operands for the equality bench *)
  let a' = Pset.of_prefixes (Pset.to_prefixes a) in
  let ra' = Pref.of_prefixes (Pset.to_prefixes a) in
  let iters = 10_000 in
  let ops =
    [
      ("union", time_op ~iters (fun () -> Pset.union a b), time_op ~iters (fun () -> Pref.union ra rb));
      ("inter", time_op ~iters (fun () -> Pset.inter a b), time_op ~iters (fun () -> Pref.inter ra rb));
      ("diff", time_op ~iters (fun () -> Pset.diff a b), time_op ~iters (fun () -> Pref.diff ra rb));
      ("subset", time_op ~iters (fun () -> Pset.subset a b), time_op ~iters (fun () -> Pref.subset ra rb));
      ("equal", time_op ~iters (fun () -> Pset.equal a a'), time_op ~iters (fun () -> Pref.equal ra ra'));
    ]
  in
  section "Prefix-set algebra: hash-consed+memoized kernel vs structural reference";
  Rd_util.Table.print
    ~headers:[ "operation"; "kernel (ns/op)"; "reference (ns/op)"; "ratio" ]
    ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right; Rd_util.Table.Right ]
    (List.map
       (fun (name, k, r) ->
         [ name; Printf.sprintf "%.0f" k; Printf.sprintf "%.0f" r;
           Printf.sprintf "%.1fx" (r /. k) ])
       ops);
  if !reach_json_path <> "" then begin
    Rd_util.Json.to_file !reach_json_path
      (Rd_util.Json.Obj
         [
           ("seed", Rd_util.Json.Int master_seed);
           ("networks", Rd_util.Json.Int (List.length graphs));
           ("passes", Rd_util.Json.Int reps);
           ("query_sweeps_per_pass", Rd_util.Json.Int queries);
           ("reference_rounds_s", Rd_util.Json.Float ref_s);
           ("hashconsed_rounds_s", Rd_util.Json.Float rounds_s);
           ("worklist_s", Rd_util.Json.Float work_s);
           ("speedup_worklist_vs_reference", Rd_util.Json.Float (ref_s /. work_s));
           ("speedup_worklist_vs_rounds", Rd_util.Json.Float (rounds_s /. work_s));
           ("iterations_reference", Rd_util.Json.Int ref_iters);
           ("iterations_rounds", Rd_util.Json.Int rounds_iters);
           ("iterations_worklist", Rd_util.Json.Int work_iters);
           ( "pset",
             Rd_util.Json.Obj
               [
                 ("nodes", Rd_util.Json.Int nodes);
                 ("memo_hits", Rd_util.Json.Int hits);
                 ("memo_misses", Rd_util.Json.Int misses);
                 ("hit_rate", Rd_util.Json.Float hit_rate);
               ] );
           ( "ops_ns",
             Rd_util.Json.Obj
               (List.concat_map
                  (fun (name, k, r) ->
                    [
                      (name ^ "_kernel", Rd_util.Json.Float k);
                      (name ^ "_reference", Rd_util.Json.Float r);
                    ])
                  ops) );
         ]);
    Printf.printf "reach bench json written to %s\n" !reach_json_path
  end

(* ------------------------------------------------ what-if sweep bench --- *)

(* Cold vs warm what-if evaluation over the study population.

   Cold is the pre-engine cost of one scenario: parse and analyze the
   base network, run its baseline fixpoint, re-analyze with the change,
   run the scenario fixpoint — for every scenario, from scratch.

   The incremental pass evaluates the same scenarios through one shared
   [Rd_core.Engine]: the base parse/analysis/baseline fixpoint are
   computed once per network and probed thereafter, and each scenario's
   reachability is a delta restart seeded with the baseline solution.

   The warm pass repeats the sweep against the now-populated engine —
   the steady state of an operator iterating on a maintenance plan —
   where every artifact is a content-addressed probe.

   All three must render byte-identical diffs; a divergence fails the
   bench (this is the bench-level twin of the equivalence tests in
   test/test_reach.ml and test/test_ops.ml). *)
let run_whatif_bench nets =
  section "What-if sweeps: cold re-analysis vs incremental engine";
  let inputs =
    List.map
      (fun (n : Rd_study.Population.network) ->
        ( n,
          Rd_study.Population.generate_one n.spec,
          Rd_study.Experiments.scenarios_of_analysis n.analysis ))
      nets
  in
  let scenario_count =
    List.fold_left (fun acc (_, _, s) -> acc + List.length s) 0 inputs
  in
  Gc.compact ();
  let cold_results, cold_s =
    time (fun () ->
        List.map
          (fun ((n : Rd_study.Population.network), files, scenarios) ->
            List.map
              (fun (s : Rd_core.Whatif.scenario) ->
                let a = Rd_core.Analysis.analyze ~name:n.spec.label files in
                Rd_core.Whatif.render (Rd_core.Whatif.run a s.changes))
              scenarios)
          inputs)
  in
  let metrics = Rd_util.Metrics.create () in
  let engine = Rd_core.Engine.create ~metrics () in
  let run_engine () =
    List.map
      (fun ((n : Rd_study.Population.network), files, scenarios) ->
        let net = Rd_core.Engine.load engine ~name:n.spec.label files in
        List.map
          (fun (o : Rd_core.Engine.outcome) -> Rd_core.Whatif.render o.diff)
          (Rd_core.Engine.run_scenarios engine net scenarios))
      inputs
  in
  Gc.compact ();
  let incr_results, incr_s = time run_engine in
  Gc.compact ();
  let warm_results, warm_s = time run_engine in
  if incr_results <> cold_results then
    failwith "incremental what-if sweep diverged from cold re-analysis";
  if warm_results <> cold_results then
    failwith "warm what-if sweep diverged from cold re-analysis";
  Printf.printf "workload: %d scenarios over %d study networks, every diff rendered\n"
    scenario_count (List.length nets);
  Rd_util.Table.print
    ~headers:[ "sweep"; "scenarios"; "wall (s)"; "speedup" ]
    ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right; Rd_util.Table.Right ]
    [
      [ "cold (full re-analysis per scenario)"; string_of_int scenario_count;
        Printf.sprintf "%.3f" cold_s; "1.00x" ];
      [ "incremental (first engine pass)"; string_of_int scenario_count;
        Printf.sprintf "%.3f" incr_s; Printf.sprintf "%.2fx" (cold_s /. incr_s) ];
      [ "warm (repeat sweep, engine populated)"; string_of_int scenario_count;
        Printf.sprintf "%.3f" warm_s; Printf.sprintf "%.2fx" (cold_s /. warm_s) ];
    ];
  Printf.printf "diffs byte-identical across all three sweeps: true\n";
  let cache_stats = Rd_core.Engine.stats engine in
  List.iter
    (fun (name, (s : Rd_util.Cache.stats)) ->
      Printf.printf "cache.%s: %d hits, %d misses, %d evictions\n" name s.hits s.misses
        s.evictions)
    cache_stats;
  if cold_s /. warm_s < 5.0 then
    Printf.printf "WARNING: warm what-if speedup below the 5x target\n";
  if !whatif_json_path <> "" then begin
    Rd_util.Json.to_file !whatif_json_path
      (Rd_util.Json.Obj
         [
           ("seed", Rd_util.Json.Int master_seed);
           ("networks", Rd_util.Json.Int (List.length nets));
           ("scenarios", Rd_util.Json.Int scenario_count);
           ("cold_s", Rd_util.Json.Float cold_s);
           ("incremental_s", Rd_util.Json.Float incr_s);
           ("warm_s", Rd_util.Json.Float warm_s);
           ("speedup_incremental_vs_cold", Rd_util.Json.Float (cold_s /. incr_s));
           ("speedup_warm_vs_cold", Rd_util.Json.Float (cold_s /. warm_s));
           ("identical", Rd_util.Json.Bool true);
           ( "cache",
             Rd_util.Json.Obj
               (List.map
                  (fun (name, (s : Rd_util.Cache.stats)) ->
                    ( name,
                      Rd_util.Json.Obj
                        [
                          ("hits", Rd_util.Json.Int s.hits);
                          ("misses", Rd_util.Json.Int s.misses);
                          ("evictions", Rd_util.Json.Int s.evictions);
                          ("invalidations", Rd_util.Json.Int s.invalidations);
                        ] ))
                  cache_stats) );
         ]);
    Printf.printf "whatif bench json written to %s\n" !whatif_json_path
  end

(* --------------------------------------------------- netlint bench --- *)

(* Cold vs warm network-wide lint.  Cold is the from-scratch cost per
   network: analyze the configurations and run every [Rd_core.Netlint]
   rule family.  Warm re-lints the very same [Analysis.t] values — the
   steady state of an operator re-running the linter while iterating —
   where the hash-consed prefix-set kernel and the filter lowerings
   memoized on physical AST identity absorb most of the work.  Both
   passes must agree finding-for-finding. *)
let run_netlint_bench nets =
  section "Network-wide lint: cold analyze+lint vs warm re-lint";
  let inputs =
    List.map
      (fun (n : Rd_study.Population.network) ->
        (n, Rd_study.Population.generate_one n.spec))
      nets
  in
  Gc.compact ();
  let cold, cold_s =
    time (fun () ->
        List.map
          (fun ((n : Rd_study.Population.network), files) ->
            let a = Rd_core.Analysis.analyze ~name:n.spec.label files in
            (a, Rd_core.Netlint.run_analysis a))
          inputs)
  in
  Gc.compact ();
  let warm_reports, warm_s =
    time (fun () -> List.map (fun (a, _) -> Rd_core.Netlint.run_analysis a) cold)
  in
  let cold_reports = List.map snd cold in
  if
    List.map (fun (r : Rd_core.Netlint.report) -> r.findings) cold_reports
    <> List.map (fun (r : Rd_core.Netlint.report) -> r.findings) warm_reports
  then failwith "warm re-lint diverged from the cold pass";
  let errors, warnings, infos = Rd_core.Netlint.counts cold_reports in
  Printf.printf "workload: %d study networks, %d errors, %d warnings, %d infos\n"
    (List.length nets) errors warnings infos;
  let speedup = cold_s /. warm_s in
  Rd_util.Table.print
    ~headers:[ "pass"; "networks"; "wall (s)"; "speedup" ]
    ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right; Rd_util.Table.Right ]
    [
      [ "cold (analyze + lint)"; string_of_int (List.length nets);
        Printf.sprintf "%.3f" cold_s; "1.00x" ];
      [ "warm (re-lint analyzed networks)"; string_of_int (List.length nets);
        Printf.sprintf "%.3f" warm_s; Printf.sprintf "%.2fx" speedup ];
    ];
  Printf.printf "findings identical across both passes: true\n";
  if speedup < 3.0 then
    Printf.printf "WARNING: warm netlint speedup below the 3x target\n";
  if !netlint_json_path <> "" then begin
    Rd_util.Json.to_file !netlint_json_path
      (Rd_util.Json.Obj
         [
           ("seed", Rd_util.Json.Int master_seed);
           ("networks", Rd_util.Json.Int (List.length nets));
           ("errors", Rd_util.Json.Int errors);
           ("warnings", Rd_util.Json.Int warnings);
           ("infos", Rd_util.Json.Int infos);
           ("cold_s", Rd_util.Json.Float cold_s);
           ("warm_s", Rd_util.Json.Float warm_s);
           ("speedup_warm_vs_cold", Rd_util.Json.Float speedup);
           ("identical", Rd_util.Json.Bool true);
         ]);
    Printf.printf "netlint bench json written to %s\n" !netlint_json_path
  end

(* ------------------------------------------------------------- part 2 --- *)

open Bechamel
open Toolkit

(* fixed inputs prepared once *)
let bench_inputs () =
  let spec =
    List.find
      (fun (s : Rd_study.Population.spec) -> s.net_id = 1)
      (Rd_study.Population.specs ~master_seed)
  in
  let files = Rd_study.Population.generate_one spec in
  let one_config = snd (List.hd files) in
  let asts = List.map (fun (n, t) -> (n, Rd_config.Parser.parse t)) files in
  let topo = Rd_topo.Topology.build asts in
  let catalog = Rd_routing.Process.build topo in
  let graph = Rd_routing.Instance_graph.build catalog in
  let subnets = Rd_addrspace.Blocks.subnets_of_configs asts in
  (files, one_config, asts, catalog, graph, subnets)

let make_tests () =
  let files, one_config, asts, catalog, graph, subnets = bench_inputs () in
  let anonymizer = Rd_config.Anonymizer.create ~key:"bench" in
  let prefixes =
    List.concat_map
      (fun (_, (c : Rd_config.Ast.t)) ->
        List.concat_map Rd_config.Ast.interface_prefixes c.interfaces)
      asts
  in
  let set_a = Rd_addr.Prefix_set.of_prefixes prefixes in
  let set_b = Rd_addr.Prefix_set.of_prefixes (List.filteri (fun i _ -> i mod 2 = 0) prefixes) in
  [
    Test.make ~name:"parse_one_config" (Staged.stage (fun () -> Rd_config.Parser.parse one_config));
    Test.make ~name:"parse_network_47"
      (Staged.stage (fun () -> List.map (fun (n, t) -> (n, Rd_config.Parser.parse t)) files));
    Test.make ~name:"topology_build" (Staged.stage (fun () -> Rd_topo.Topology.build asts));
    Test.make ~name:"adjacency" (Staged.stage (fun () -> Rd_routing.Adjacency.compute catalog));
    Test.make ~name:"instance_graph" (Staged.stage (fun () -> Rd_routing.Instance_graph.build catalog));
    Test.make ~name:"reachability_fixpoint"
      (Staged.stage (fun () -> Rd_reach.Reachability.compute graph));
    Test.make ~name:"address_blocks" (Staged.stage (fun () -> Rd_addrspace.Blocks.discover subnets));
    Test.make ~name:"anonymize_config"
      (Staged.stage (fun () -> Rd_config.Anonymizer.anonymize_config anonymizer one_config));
    (* Kernel set-operation micro-benches live in the dedicated
       [--only-reach] harness ([time_op] over fixed operands): memoized
       ops complete in nanoseconds, below what bechamel's
       GC-stabilized sampling resolves against this run's multi-million
       node heap.  [prefix_set_inter] here keeps measuring the
       structural reference implementation, the stable yardstick. *)
    Test.make ~name:"prefix_set_inter"
      (Staged.stage
         (let ra = to_ref set_a and rb = to_ref set_b in
          fun () -> Pref.inter ra rb));
    Test.make ~name:"reachability_rounds"
      (Staged.stage (fun () -> Rd_reach.Reachability.compute_rounds graph));
    Test.make ~name:"sha1_1k"
      (Staged.stage
         (let s = String.make 1024 'x' in
          fun () -> Rd_util.Sha1.digest_string s));
    Test.make ~name:"pathway_bfs" (Staged.stage (fun () -> Rd_routing.Pathway.build graph ~router:0));
    Test.make ~name:"generate_net_20"
      (Staged.stage (fun () ->
           Rd_gen.Builder.to_texts
             (Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:9 ~n:20 ~index:1 ())));
  ]

let run_benchmarks () =
  section "PART 2: PIPELINE MICRO-BENCHMARKS (Bechamel)";
  let tests = make_tests () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let grouped = Test.make_grouped ~name:"rdna" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let analyzed = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let time =
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          | _ -> "n/a"
        in
        (name, time) :: acc)
      analyzed []
    |> List.sort compare
    |> List.map (fun (n, t) -> [ n; t ])
  in
  Rd_util.Table.print ~headers:[ "stage"; "time/run" ]
    ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right ]
    rows

let build_population_only () =
  let jobs = max 1 !jobs in
  Printf.printf "building the 31-network study population (seed %d, %d jobs)...\n%!"
    master_seed jobs;
  build_population ~jobs ()

let () =
  if !only_reach then run_reach_bench (build_population_only ())
  else if !only_whatif then run_whatif_bench (build_population_only ())
  else if !only_netlint then run_netlint_bench (build_population_only ())
  else begin
    let nets = run_experiments () in
    run_reach_bench nets;
    run_whatif_bench nets;
    run_benchmarks ()
  end;
  print_newline ()
