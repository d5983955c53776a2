(* Chaos suite: deterministic fault injection driven through every layer
   of the pipeline — spec parsing, the parser (raise/corrupt/delay), the
   analysis stages, the study population, the pool, and the fixpoint
   budgets — asserting that runs complete, degrade as specified, report
   every injected fault, and stay byte-identical where untouched. *)

open Rd_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let seed = 2004

let plan spec =
  match Fault.of_spec spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e

let spec_of id =
  List.find
    (fun (s : Rd_study.Population.spec) -> s.net_id = id)
    (Rd_study.Population.specs ~master_seed:seed)

let files_of id = Rd_study.Population.generate_one (spec_of id)

(* The supervised study sweep on two workers: the path [rdna study -j 2]
   runs. *)
let study_sweep ?metrics ?faults ?retries only =
  Rd_study.Driver.sweep ~jobs:2 ?metrics ?faults ?retries ~only ~master_seed:seed
    (Rd_study.Driver.study ?metrics ~jobs:2 ?faults ())

(* the networks a sweep built in-process *)
let networks items = List.filter_map (fun (i : Rd_study.Driver.study_item) -> i.network) items

let diag_codes (a : Rd_core.Analysis.t) =
  List.map (fun (d : Rd_config.Diag.t) -> d.code) a.diags

(* ------------------------------------------------------- spec parsing --- *)

let test_spec_parse_ok () =
  let f = plan "seed=7;study.network:raise:key=net4;parse.bytes:corrupt:p=0.01" in
  check_int "seed" 7 (Fault.seed f);
  check_int "no fires yet" 0 (List.length (Fault.injections f));
  let f = plan "reach.fixpoint:delay=2.5:max=3" in
  check_int "default seed" 0 (Fault.seed f)

let test_spec_parse_errors () =
  let bad s =
    match Fault.of_spec s with
    | Ok _ -> Alcotest.failf "spec %S should not parse" s
    | Error e -> check_bool "message non-empty" true (String.length e > 0)
  in
  bad "";
  bad "seed=x;a:raise";
  bad "siteonly";
  bad "a:raise:p=2";
  bad "a:raise:frob=1";
  bad "a:raise:delay=5";
  (* two kinds *)
  bad "a:delay=-1"

let test_from_env () =
  let saved = Sys.getenv_opt "RDNA_FAULTS" in
  Unix.putenv "RDNA_FAULTS" "";
  (match Fault.from_env () with
   | Ok None -> ()
   | _ -> Alcotest.fail "empty RDNA_FAULTS should disable faults");
  Unix.putenv "RDNA_FAULTS" "study.network:raise";
  (match Fault.from_env () with
   | Ok (Some _) -> ()
   | _ -> Alcotest.fail "RDNA_FAULTS should parse");
  Unix.putenv "RDNA_FAULTS" "nonsense";
  (match Fault.from_env () with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad RDNA_FAULTS should error");
  Unix.putenv "RDNA_FAULTS" (match saved with Some s -> s | None -> "")

(* -------------------------------------------------------- determinism --- *)

let test_decisions_deterministic () =
  (* two fresh plans from the same spec make identical probabilistic
     decisions for the same keyed calls, regardless of call interleaving
     across keys *)
  let spec = "seed=11;point:raise:p=0.5" in
  let outcomes f keys =
    List.map
      (fun k ->
        match Fault.fault_point (Some f) ~site:"point" ~key:k with
        | () -> false
        | exception Fault.Injected _ -> true)
      keys
  in
  let keys = List.init 64 (fun i -> Printf.sprintf "k%d" (i mod 16)) in
  let a = outcomes (plan spec) keys in
  let b = outcomes (plan spec) keys in
  check_bool "same decisions" true (a = b);
  check_bool "some fired" true (List.exists Fun.id a);
  check_bool "some spared" true (List.exists not a);
  (* a different seed flips at least one decision *)
  let c = outcomes (plan "seed=12;point:raise:p=0.5") keys in
  check_bool "seed changes decisions" true (a <> c)

let test_site_prefix_matching () =
  let f = plan "analysis:raise" in
  (match Fault.fault_point (Some f) ~site:"analysis.blocks" with
   | () -> Alcotest.fail "dotted prefix should match"
   | exception Fault.Injected ("analysis.blocks", None) -> ());
  Fault.fault_point (Some f) ~site:"analysisx.blocks";
  (* no fire *)
  check_int "one injection logged" 1 (List.length (Fault.injections f))

(* ----------------------------------------------- parser-level faults --- *)

let test_raise_at_parse_file () =
  (* killing one file's parse drops that file, codes the drop, and lets
     the rest of the network analyze *)
  let files = files_of 4 in
  let faults = plan "seed=2;parse.file:raise:key=net4/config2" in
  let a = Rd_core.Analysis.analyze ~jobs:2 ~faults ~name:"net4" files in
  check_int "one file dropped" (List.length files - 1) (List.length a.configs);
  check_bool "config-failed diag" true (List.mem "config-failed" (diag_codes a));
  check_bool "degraded line in summary" true
    (let s = Rd_core.Analysis.summary a in
     let needle = "degraded: 1 configuration files dropped" in
     let rec go i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || go (i + 1))
     in
     go 0);
  check_int "fault fired exactly once" 1 (List.length (Fault.injections faults))

let test_corrupt_at_parse_bytes () =
  (* corrupted bytes must be tolerated by the diagnostic parser: the
     analysis completes with all files present *)
  let files = files_of 4 in
  let faults = plan "seed=9;parse.bytes:corrupt:key=net4/config1" in
  let a = Rd_core.Analysis.analyze ~jobs:2 ~faults ~name:"net4" files in
  check_int "no file dropped" (List.length files) (List.length a.configs);
  (match Fault.injections faults with
   | [ { i_site = "parse.bytes"; i_key = Some "net4/config1"; i_kind = Fault.Corrupt } ] -> ()
   | l -> Alcotest.failf "expected one corrupt injection, got %d" (List.length l))

let test_corrupt_changes_bytes_deterministically () =
  let text = String.concat "\n" (List.init 50 (fun i -> Printf.sprintf "line %d" i)) in
  let c1 = Fault.corrupt (Some (plan "s:corrupt")) ~site:"s" ~key:"k" text in
  let c2 = Fault.corrupt (Some (plan "s:corrupt")) ~site:"s" ~key:"k" text in
  check_bool "bytes changed" true (c1 <> text);
  check_string "corruption deterministic" c1 c2;
  check_int "length preserved" (String.length text) (String.length c1);
  let c3 = Fault.corrupt (Some (plan "seed=1;s:corrupt")) ~site:"s" ~key:"k" text in
  check_bool "seed varies corruption" true (c1 <> c3)

let test_delay_is_invisible () =
  (* a delay fault slows the run but cannot change its output *)
  let files = files_of 10 in
  let clean = Rd_core.Analysis.analyze ~jobs:2 ~name:"net10" files in
  let faults = plan "seed=4;parse.file:delay=1" in
  let delayed = Rd_core.Analysis.analyze ~jobs:2 ~faults ~name:"net10" files in
  check_string "summary byte-identical under delay"
    (Rd_core.Analysis.summary clean)
    (Rd_core.Analysis.summary delayed);
  check_int "delays fired once per file" (List.length files)
    (List.length (Fault.injections faults))

(* ---------------------------------------------------- resource budgets --- *)

let test_config_bytes_budget () =
  let files = files_of 4 in
  let limits = { Limits.default with Limits.max_config_bytes = 64 } in
  let a = Rd_core.Analysis.analyze ~jobs:2 ~limits ~name:"net4" files in
  check_int "all files dropped" 0 (List.length a.configs);
  check_bool "budget-exceeded diags" true
    (List.for_all (fun c -> c = "budget-exceeded") (diag_codes a));
  check_int "one diag per file" (List.length files) (List.length a.diags)

let test_blocks_budget_degrades () =
  let limits = { Limits.default with Limits.max_subnets = 1 } in
  let a = Rd_core.Analysis.analyze ~jobs:2 ~limits ~name:"net4" (files_of 4) in
  check_int "no blocks" 0 (List.length a.blocks);
  check_bool "budget-exceeded diag" true (List.mem "budget-exceeded" (diag_codes a));
  check_bool "rest of analysis intact" true (Rd_core.Analysis.router_count a > 0)

let test_reach_fixpoint_budget () =
  let a = Rd_core.Analysis.analyze ~jobs:2 ~name:"net4" (files_of 4) in
  (* default budget: converges fine *)
  let r = Rd_reach.Reachability.compute a.graph in
  check_bool "fixpoint found" true (r.iterations >= 1);
  let limits = { Limits.default with Limits.max_fixpoint_iterations = 0 } in
  match Rd_reach.Reachability.compute ~limits a.graph with
  | _ -> Alcotest.fail "a zero-round budget should be exceeded"
  | exception Limits.Budget_exceeded { site = "reach.fixpoint"; budget = 0 } -> ()

let test_propagate_budget_degrades () =
  let a = Rd_core.Analysis.analyze ~jobs:2 ~name:"net10" (files_of 10) in
  let g = Rd_routing.Process_graph.build a.catalog in
  let full = Rd_sim.Propagate.run g in
  check_bool "default budget converges" true full.converged;
  check_bool "needs more than one round" true (full.iterations > 1);
  let limits = { Limits.default with Limits.max_propagate_iterations = 1 } in
  let cut = Rd_sim.Propagate.run ~limits g in
  check_int "stopped at the budget" 1 cut.iterations;
  check_bool "reports non-convergence instead of raising" false cut.converged

(* ------------------------------------------------------- study chaos --- *)

let test_study_degrades_one_network () =
  let only = [ 3; 4; 8 ] in
  let clean = Rd_study.Population.build ~only ~jobs:2 ~master_seed:seed () in
  let metrics = Metrics.create () in
  let faults = plan "seed=5;study.network:raise:key=net4" in
  Fault.set_metrics faults (Some metrics);
  let results = study_sweep ~metrics ~faults only in
  let items, failures = Rd_study.Population.partition results in
  let survivors = networks items in
  check_int "two survivors" 2 (List.length survivors);
  check_int "one failure" 1 (List.length failures);
  let f = List.hd failures in
  check_string "failed network" "net4" f.spec.label;
  check_bool "site recorded" true (f.failure.site = Some "study.network");
  check_string "stable error text" "injected fault at study.network [net4]"
    (Printexc.to_string f.failure.exn);
  (* untouched networks are byte-identical to a fault-free build *)
  List.iter2
    (fun (c : Rd_study.Population.network) (s : Rd_study.Population.network) ->
      check_int "same net" c.spec.net_id s.spec.net_id;
      check_string
        (Printf.sprintf "net%d summary untouched" c.spec.net_id)
        (Rd_core.Analysis.summary c.analysis)
        (Rd_core.Analysis.summary s.analysis))
    (List.filter (fun (n : Rd_study.Population.network) -> n.spec.net_id <> 4) clean)
    survivors;
  check_int "fault fired exactly once" 1 (List.length (Fault.injections faults));
  check_bool "network.degraded counted" true
    (Metrics.counter_value metrics "network.degraded" = Some 1);
  check_bool "fault.injected counted" true
    (Metrics.counter_value metrics "fault.injected" = Some 1)

let test_study_retry_recovers_network () =
  (* max=1: the network fails once, the retry succeeds, nothing degrades *)
  let metrics = Metrics.create () in
  let faults = plan "seed=6;study.network:raise:key=net3:max=1" in
  let results = study_sweep ~metrics ~faults ~retries:1 [ 3 ] in
  let items, failures = Rd_study.Population.partition results in
  check_int "no failures after retry" 0 (List.length failures);
  check_int "network recovered" 1 (List.length (networks items));
  check_bool "task.retried counted" true
    (Metrics.counter_value metrics "task.retried" = Some 1)

let test_failure_report_matches_golden () =
  (* the failed-network report for the CI chaos smoke scenario matches
     the checked-in golden file byte for byte *)
  let results = study_sweep ~faults:(plan "seed=5;study.network:raise:key=net4") [ 3; 4; 8 ] in
  let _, failures = Rd_study.Population.partition results in
  let report = Rd_study.Population.render_failures ~total:(List.length results) failures in
  (* cwd is the test dir under `dune runtest`, the repo root under
     `dune exec test/test_fault.exe` *)
  let path =
    List.find Sys.file_exists
      [ "chaos_smoke.expected"; Filename.concat "test" "chaos_smoke.expected" ]
  in
  let ic = open_in_bin path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_string "golden failed-network report" golden report

(* --------------------------------------------------- property (qcheck) --- *)

(* The supervised parallel map over a faulty function is equivalent to a
   sequential map over the same seeded faults: same Ok values, same
   error messages, same order.  Each item keys its fault point with its
   index, so decisions are schedule-independent; each run gets a fresh
   plan because plans carry call counters. *)
let prop_supervised_map_matches_sequential =
  QCheck.Test.make ~name:"parallel_map_results = sequential map under faults" ~count:30
    QCheck.(triple small_nat (int_bound 1000) (int_bound 3))
    (fun (n, fseed, denom) ->
      let input = List.init n (fun i -> i) in
      let spec = Printf.sprintf "seed=%d;prop.item:raise:p=0.%d5" fseed denom in
      let run jobs =
        let faults = plan spec in
        Pool.parallel_map_results ~jobs
          (fun x ->
            Fault.fault_point (Some faults) ~site:"prop.item" ~key:(string_of_int x);
            (x * 7) + 1)
          input
      in
      let norm =
        List.map (function Ok v -> Ok v | Error (f : Pool.failure) -> Error (Printexc.to_string f.exn))
      in
      norm (run 1) = norm (run 4))

let () =
  Alcotest.run "rd_fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parses" `Quick test_spec_parse_ok;
          Alcotest.test_case "rejects malformed" `Quick test_spec_parse_errors;
          Alcotest.test_case "RDNA_FAULTS env" `Quick test_from_env;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded decisions" `Quick test_decisions_deterministic;
          Alcotest.test_case "site prefix matching" `Quick test_site_prefix_matching;
          Alcotest.test_case "corruption deterministic" `Quick
            test_corrupt_changes_bytes_deterministically;
        ] );
      ( "parser",
        [
          Alcotest.test_case "raise at parse.file degrades" `Quick test_raise_at_parse_file;
          Alcotest.test_case "corrupt at parse.bytes tolerated" `Quick
            test_corrupt_at_parse_bytes;
          Alcotest.test_case "delay invisible in output" `Quick test_delay_is_invisible;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "config bytes" `Quick test_config_bytes_budget;
          Alcotest.test_case "blocks subnets degrade" `Quick test_blocks_budget_degrades;
          Alcotest.test_case "reach fixpoint raises" `Quick test_reach_fixpoint_budget;
          Alcotest.test_case "propagate rounds degrade" `Quick
            test_propagate_budget_degrades;
        ] );
      ( "study",
        [
          Alcotest.test_case "one network degrades, thirty survive" `Quick
            test_study_degrades_one_network;
          Alcotest.test_case "retry recovers a network" `Quick
            test_study_retry_recovers_network;
          Alcotest.test_case "golden failure report" `Quick
            test_failure_report_matches_golden;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_supervised_map_matches_sequential ] );
    ]
