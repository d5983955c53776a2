(* Tests for the benchmark's own arithmetic: percentiles, self time,
   compare verdicts, and seeded scenario derivation. *)

open Rdbench

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ----------------------------------------------------------------- Stats *)

let test_ten_beyond () =
  check_bool "99 samples: 9 beyond p90" false (Stats.supported ~n:99 90);
  check_bool "100 samples: 10 beyond p90" true (Stats.supported ~n:100 90);
  check_bool "19 samples: 9 beyond p50" false (Stats.supported ~n:19 50);
  check_bool "20 samples: 10 beyond p50" true (Stats.supported ~n:20 50);
  Alcotest.(check int) "beyond p90 of 124" 12 (Stats.beyond ~n:124 90)

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  check_float "p50 nearest rank" 50.0 (Stats.percentile xs 50);
  check_float "p90 nearest rank" 90.0 (Stats.percentile xs 90);
  check_float "p100" 100.0 (Stats.percentile xs 100);
  check_float "median even" 50.5 (Stats.median xs)

(* Values Python's statistics.quantiles(xs, n=4) returns. *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check_float "q1" 2.75 q1;
  check_float "q2" 5.5 q2;
  check_float "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [ 3.; 1.; 2. ] in
  check_float "q1 of 3" 1.0 q1;
  check_float "q2 of 3" 2.0 q2;
  check_float "q3 of 3" 3.0 q3

(* ------------------------------------------------------------- self time *)

let span ?(cat = "bench") ?(args = []) ~tid ~depth name ts dur =
  { Rd_util.Trace.name; cat; ts_us = ts; dur_us = dur; tid; depth; args }

let self_of nodes name tid =
  let n =
    List.find (fun (n : Ledger.node) -> n.span.name = name && n.span.tid = tid) nodes
  in
  n.self_us

(* A round on domain 0 waits for two pool workers; worker spans never
   subtract from the round, and each worker's nesting is its own. *)
let nested =
  [
    span ~cat:"wait" ~tid:0 ~depth:0 "round" 0. 100.;
    span ~tid:0 ~depth:1 "report" 80. 15.;
    span ~cat:"pool" ~tid:1 ~depth:0 "task" 5. 70.;
    span ~tid:1 ~depth:1 "study.network" 6. 68.;
    span ~cat:"network" ~tid:1 ~depth:2 "analyze" 6. 60.;
    span ~cat:"stage" ~tid:1 ~depth:3 "parse" 6. 10.;
    span ~cat:"stage" ~tid:1 ~depth:3 "topology" 16. 40.;
    span ~tid:1 ~depth:2 "report" 66. 7.;
    span ~cat:"pool" ~tid:2 ~depth:0 "task" 5. 50.;
    span ~cat:"stage" ~tid:2 ~depth:1 "blocks" 5. 50.;
  ]

let test_self_time () =
  let nodes = Ledger.self_times nested in
  check_float "round minus its same-domain child" 85. (self_of nodes "round" 0);
  check_float "analyze minus its stages" 10. (self_of nodes "analyze" 1);
  check_float "network minus analyze and report" 1. (self_of nodes "study.network" 1);
  check_float "leaf stage" 40. (self_of nodes "topology" 1);
  check_float "worker 2 task" 0. (self_of nodes "task" 2);
  let parent =
    (List.find (fun (n : Ledger.node) -> n.span.name = "parse") nodes).parent
  in
  Alcotest.(check (option string)) "parent on the same domain" (Some "analyze") parent

let test_layer_attribution () =
  let nodes =
    Ledger.self_times
      [
        span ~tid:0 ~depth:0 "whatif.scenario" 0. 100.;
        span ~cat:"cache" ~args:[ ("cache", Rd_util.Trace.String "whatif") ] ~tid:0 ~depth:1
          "cache.miss" 1. 50.;
        span ~cat:"cache" ~args:[ ("cache", Rd_util.Trace.String "reach") ] ~tid:0 ~depth:1
          "cache.miss" 60. 30.;
        span ~tid:0 ~depth:0 "reach.compute" 200. 10.;
        span ~cat:"cache" ~args:[ ("cache", Rd_util.Trace.String "reach") ] ~tid:0 ~depth:1
          "cache.miss" 201. 8.;
      ]
  in
  let layers = List.map Ledger.layer_of nodes in
  Alcotest.(check (list (option string)))
    "layers"
    [
      Some "whatif.compare"; Some "whatif.apply_delta"; Some "reach.compute_delta";
      Some "reach.compute"; Some "reach.compute";
    ]
    layers

(* --------------------------------------------------------------- verdict *)

let verdict =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Verdict.to_string v)) ( = )

let judge parent change =
  Verdict.judge ~lower_is_better:true ~bound:0.10 ~parent ~change
    ~pairs:(List.combine parent change)

let steady = [ 10.0; 10.1; 9.9; 10.0; 10.2; 9.8; 10.0; 10.1; 9.9; 10.0 ]

let test_verdicts () =
  Alcotest.check verdict "identical runs" Verdict.Same (judge steady steady);
  Alcotest.check verdict "every pair faster by 5%" Verdict.Better
    (judge steady (List.map (fun x -> x *. 0.95) steady));
  Alcotest.check verdict "8 of 10 pairs faster" Verdict.Same
    (judge steady (List.mapi (fun i x -> if i < 8 then x *. 0.95 else x *. 1.05) steady));
  Alcotest.check verdict "20% slower" Verdict.Worse
    (judge steady (List.map (fun x -> x *. 1.2) steady));
  Alcotest.check verdict "5% slower is within the bound" Verdict.Same
    (judge steady (List.map (fun x -> x *. 1.05) steady));
  let noisy = [ 6.; 14.; 8.; 12.; 10.; 7.; 13.; 9.; 11.; 10. ] in
  Alcotest.check verdict "spread wider than the bound" Verdict.Unresolved
    (judge noisy (List.map (fun x -> x *. 1.2) noisy));
  Alcotest.check verdict "wide spread but every change run faster" Verdict.Better
    (judge noisy (List.map (fun x -> x *. 0.3) noisy))

(* ------------------------------------------------------------- scenarios *)

let test_core_routers_out_seeded () =
  let derive () =
    let spec = List.nth (Rd_study.Population.specs ~master_seed:2004) 3 in
    let a =
      Rd_core.Analysis.analyze ~jobs:1 ~name:spec.label (Rd_study.Population.generate_one spec)
    in
    (a, Workloads.core_routers_out ~seed:2004 a)
  in
  let a, first = derive () and _, second = derive () in
  let to_s = List.map Rd_core.Whatif.scenario_to_string in
  Alcotest.(check (list string)) "same routers on both runs" (to_s first) (to_s second);
  Alcotest.(check int) "two scenarios" 2 (List.length first);
  let names = Array.map fst a.topo.routers in
  let half = Array.to_list (Array.sub names 0 (Array.length names / 2)) in
  List.iter
    (fun (s : Rd_core.Whatif.scenario) ->
      match s.changes with
      | [ Rd_core.Whatif.Remove_router r ] ->
        check_bool "drawn from the first half" true (List.mem r half)
      | _ -> Alcotest.fail "expected one remove-router change")
    first;
  check_bool "distinct routers" true
    ((List.nth first 0).changes <> (List.nth first 1).changes)

let () =
  Alcotest.run "rdbench"
    [
      ( "stats",
        [
          Alcotest.test_case "ten-beyond rule" `Quick test_ten_beyond;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "self time across domains" `Quick test_self_time;
          Alcotest.test_case "layer attribution" `Quick test_layer_attribution;
        ] );
      ("verdict", [ Alcotest.test_case "synthetic samples" `Quick test_verdicts ]);
      ( "workloads",
        [ Alcotest.test_case "core-router-out seeded" `Quick test_core_routers_out_seeded ] );
    ]
