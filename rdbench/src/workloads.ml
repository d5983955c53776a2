(* The benchmark's workloads.

   Each workload has a set-up, which generates its inputs from the seed
   (the program under test receives only generated configuration text),
   and a round, which calls the system's public entry points on those
   inputs inside a timed region and checks the outputs outside it.  Load
   comes from one client in a closed loop: a network or scenario starts
   as soon as a worker is free. *)

module Trace = Rd_util.Trace
module Metrics = Rd_util.Metrics
module Pool = Rd_util.Pool
module Sha1 = Rd_util.Sha1
module Json = Rd_util.Json
module Population = Rd_study.Population
module Experiments = Rd_study.Experiments
module Netstat = Rd_study.Netstat
module Analysis = Rd_core.Analysis
module Engine = Rd_core.Engine
module Whatif = Rd_core.Whatif
module Netlint = Rd_core.Netlint
module Crosscheck = Rd_check.Crosscheck

let now = Trace.now

(* The pooled workloads use at most two domains, the size of the
   machines the bounds were set on. *)
let jobs () = min 2 (Domain.recommended_domain_count ())

type obs = { trace : Trace.t; metrics : Metrics.t }

type round = {
  seconds : float;  (** the timed region. *)
  op_ms : float list;  (** latency of each operation, in a fixed order; nan when it failed. *)
  attempted : int;
  failed : int;  (** operations that raised or were skipped. *)
  output : string;  (** what a user reads; must not change across rounds. *)
  errors : string list;  (** failed output checks. *)
  facts : (string * string) list;  (** seed-specific results pinned by golden files. *)
  layers : (string * float) list;  (** per-layer values the trace cannot show. *)
}

type session = {
  inputs : string Lazy.t;  (** digest of the generated inputs. *)
  round : index:int -> obs option -> round;
  decompose : obs -> unit;  (** extra calls after a traced round, outside its timing. *)
}

type t = {
  name : string;
  cold : bool;  (** run each round on a fresh domain, so no memo table is warm. *)
  setup : int -> session;
}

let trace_of = Option.map (fun o -> o.trace)
let metrics_of = Option.map (fun o -> o.metrics)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1e3)

let attempt f = match f () with v -> Ok v | exception e -> Error e

let digest_inputs files =
  lazy
    (Sha1.hex_of_string
       (String.concat ""
          (List.concat_map
             (List.map (fun (f, text) -> Sha1.hex_of_string (f ^ "\000" ^ text)))
             files)))

let specs_upto ~seed n =
  List.filter (fun (s : Population.spec) -> s.n <= n) (Population.specs ~master_seed:seed)

let analyzed specs =
  Pool.parallel_map ~jobs:(jobs ())
    (fun (spec : Population.spec) ->
      let files = Population.generate_one spec in
      (spec, files, Analysis.analyze ~jobs:1 ~name:spec.label files))
    specs

(* Pooled rounds submit the largest network first, so a round's length
   does not hinge on when the largest network happens to start; outputs
   are put back in net-id order. *)
let largest_first specs =
  List.stable_sort (fun (a : Population.spec) b -> Int.compare b.n a.n) specs

let oks l = List.filter_map (function Ok v -> Some v | Error _ -> None) l
let latencies l = List.map (function Ok (_, ms) -> ms | Error _ -> nan) l
let errors_in l = List.length (List.filter Result.is_error l)

(* ----------------------------------------------------------------- study *)

let study_report stats =
  String.concat "" (List.map Netstat.render_block stats)
  ^ Experiments.sec7_stats stats
  ^ Experiments.table1_stats stats
  ^ Experiments.table3_stats stats
  ^ Experiments.fig11_stats stats

let last_line s =
  match List.filter (( <> ) "") (String.split_on_char '\n' s) with
  | [] -> ""
  | l -> List.nth l (List.length l - 1)

(* The paper's own workload: every network analyzed from configuration
   text across the pool, then the [rdna study] report. *)
let study =
  let setup seed =
    let inputs =
      List.map
        (fun spec -> (spec, Population.generate_one spec))
        (largest_first (Population.specs ~master_seed:seed))
    in
    let round ~index:_ obs =
      let trace = trace_of obs and metrics = metrics_of obs in
      let t0 = now () in
      let results, report =
        Ledger.span ~cat:"wait" trace "round" (fun () ->
            let results =
              Pool.parallel_map_results ~jobs:(jobs ()) ?trace ?metrics
                (fun ((spec : Population.spec), files) ->
                  timed (fun () ->
                      Ledger.span trace "study.network" (fun () ->
                          let analysis =
                            Analysis.analyze ?trace ?metrics ~jobs:1 ~name:spec.label files
                          in
                          let net = { Population.spec; analysis } in
                          (net, Ledger.span trace "report" (fun () -> Netstat.of_network net)))))
                inputs
            in
            let stats =
              List.sort
                (fun (a : Netstat.t) b -> Int.compare a.net_id b.net_id)
                (List.map (fun ((_, s), _) -> s) (oks results))
            in
            (results, Ledger.span trace "report" (fun () -> study_report stats)))
      in
      let seconds = now () -. t0 in
      let nets = List.map (fun ((n, _), _) -> n) (oks results) in
      {
        seconds;
        op_ms = latencies results;
        attempted = List.length results;
        failed = errors_in results;
        output = report;
        errors = [];
        facts = [ ("scorecard", last_line (Experiments.scorecard ~master_seed:seed nets)) ];
        layers = [];
      }
    in
    { inputs = digest_inputs (List.map snd inputs); round; decompose = ignore }
  in
  { name = "study"; cold = true; setup }

(* ---------------------------------------------------------------- whatif *)

(* Core routers: two drawn from the first half of the router array,
   where the generators place backbone and distribution routers (access
   routers come last).  Removing one dirties most of the baseline
   fixpoint, where an edge-router loss carries most of it over.  Two per
   network put more than a hundred scenarios in a sweep, so its p90 has
   ten beyond it. *)
let core_routers_out ~seed (a : Analysis.t) =
  let half = Array.length a.topo.routers / 2 in
  let rng = Rd_util.Prng.create (Hashtbl.hash (seed, a.name)) in
  List.mapi
    (fun k i ->
      {
        Whatif.label = Printf.sprintf "core-router-out-%d" (k + 1);
        changes = [ Whatif.Remove_router (fst a.topo.routers.(i)) ];
      })
    (List.sort Int.compare (Rd_util.Prng.sample rng 2 (List.init half Fun.id)))

let scenarios ~seed a = Experiments.scenarios_of_analysis a @ core_routers_out ~seed a

type wnet = {
  spec : Population.spec;
  files : (string * string) list;
  analysis : Analysis.t;  (** cold analysis the scenario checks compare against. *)
  scenarios : Whatif.scenario list;
}

(* Networks of at most 250 routers: every scenario re-analyzes its whole
   network, so the seven largest would take the sweep past a minute. *)
let whatif_nets seed =
  List.map
    (fun (spec, files, analysis) ->
      { spec; files; analysis; scenarios = scenarios ~seed analysis })
    (analyzed (specs_upto ~seed 250))

let sweep ?trace engine nets =
  List.concat_map
    (fun w ->
      let net =
        Ledger.span trace "engine.load" (fun () -> Engine.load engine ~name:w.spec.label w.files)
      in
      ignore
        (Ledger.span trace "reach.compute" (fun () ->
             Engine.reachability ~external_offers:Rd_addr.Prefix_set.empty engine net));
      List.map
        (fun s ->
          (w, attempt (fun () ->
               Ledger.span trace "whatif.scenario" (fun () -> Engine.run_scenario engine net s))))
        w.scenarios)
    nets

let render_outcomes outcomes =
  String.concat ""
    (List.map
       (fun (w, r) ->
         match r with
         | Ok (o : Engine.outcome) ->
           Printf.sprintf "== %s %s\n%s" w.spec.label o.scenario.label (Whatif.render o.diff)
         | Error e -> Printf.sprintf "== %s raised %s\n" w.spec.label (Printexc.to_string e))
       outcomes)

let scenario_failed = function
  | Ok (o : Engine.outcome) -> o.diff.warnings <> []
  | Error _ -> true

let cache_layers before after =
  List.concat_map
    (fun (store, (s : Rd_util.Cache.stats)) ->
      let b =
        Option.value (List.assoc_opt store before)
          ~default:{ Rd_util.Cache.hits = 0; misses = 0; evictions = 0; invalidations = 0 }
      in
      [
        ("cache." ^ store ^ ".hits", float_of_int (s.hits - b.hits));
        ("cache." ^ store ^ ".misses", float_of_int (s.misses - b.misses));
      ])
    after

let sweep_round ~seconds ~errors ~layers outcomes =
  {
    seconds;
    op_ms =
      List.map
        (function _, Ok (o : Engine.outcome) -> o.seconds *. 1e3 | _, Error _ -> nan)
        outcomes;
    attempted = List.length outcomes;
    failed = List.length (List.filter (fun (_, r) -> scenario_failed r) outcomes);
    output = render_outcomes outcomes;
    errors;
    facts = [];
    layers;
  }

(* Scenarios through one fresh engine: the first pass writes every
   store.  Outside the timed region one scenario in eight (a different
   eighth each round) is compared with a cold [Whatif.run]. *)
let whatif =
  let setup seed =
    let nets = whatif_nets seed in
    let round ~index obs =
      let trace = trace_of obs in
      let engine = Engine.create ?trace ?metrics:(metrics_of obs) () in
      let t0 = now () in
      let outcomes = Ledger.span trace "round" (fun () -> sweep ?trace engine nets) in
      let seconds = now () -. t0 in
      let errors =
        List.concat
          (List.mapi
             (fun i (w, r) ->
               match r with
               | Ok (o : Engine.outcome) when i mod 8 = index mod 8 ->
                 let cold = Whatif.run w.analysis o.scenario.changes in
                 if Whatif.render cold = Whatif.render o.diff then []
                 else
                   [
                     Printf.sprintf "%s %s: engine diff differs from a cold Whatif.run"
                       w.spec.label o.scenario.label;
                   ]
               | _ -> [])
             outcomes)
      in
      sweep_round ~seconds ~errors ~layers:(cache_layers [] (Engine.stats engine)) outcomes
    in
    { inputs = digest_inputs (List.map (fun w -> w.files) nets); round; decompose = ignore }
  in
  { name = "whatif"; cold = true; setup }

(* The identical sweep against the engine the set-up populated: every
   artifact is a cache probe, so this is the path a cache change moves
   and the first pass bypasses. *)
let whatif_warm =
  let setup seed =
    let nets = whatif_nets seed in
    let engine = Engine.create () in
    let first = render_outcomes (sweep engine nets) in
    let round ~index:_ obs =
      let trace = trace_of obs in
      let before = Engine.stats engine in
      let t0 = now () in
      let outcomes = Ledger.span trace "round" (fun () -> sweep ?trace engine nets) in
      let seconds = now () -. t0 in
      let layers = cache_layers before (Engine.stats engine) in
      let r = sweep_round ~seconds ~errors:[] ~layers outcomes in
      let misses =
        List.fold_left
          (fun acc (k, v) -> if String.ends_with ~suffix:".misses" k then acc +. v else acc)
          0.0 layers
      in
      let errors =
        (if r.output = first then [] else [ "warm sweep rendered differently from the first pass" ])
        @
        if misses = 0.0 then []
        else [ Printf.sprintf "warm sweep missed the cache %.0f times" misses ]
      in
      { r with errors }
    in
    { inputs = digest_inputs (List.map (fun w -> w.files) nets); round; decompose = ignore }
  in
  { name = "whatif-warm"; cold = false; setup }

(* ------------------------------------------------------------ crosscheck *)

let error_count reports =
  List.fold_left
    (fun acc (r : Crosscheck.report) ->
      acc
      + List.length
          (List.filter
             (fun (v : Crosscheck.violation) -> v.severity = Rd_config.Diag.Error)
             r.violations))
    0 reports

(* All six invariants on the networks of at most 110 routers, across the
   pool.  Larger networks take seconds each in the simulator (450-router
   net2 about 16 s), and the slowest network would set the round time. *)
let crosscheck =
  let setup seed =
    let nets = analyzed (largest_first (specs_upto ~seed 110)) in
    let round ~index:_ obs =
      let trace = trace_of obs in
      let t0 = now () in
      let results =
        Ledger.span ~cat:"wait" trace "round" (fun () ->
            Pool.parallel_map_results ~jobs:(jobs ()) ?trace ?metrics:(metrics_of obs)
              (fun (_, files, a) ->
                timed (fun () ->
                    Ledger.span trace "crosscheck.run" (fun () ->
                        Crosscheck.run_analysis ~files a)))
              nets)
      in
      let seconds = now () -. t0 in
      let reports =
        List.combine nets results
        |> List.sort (fun (((a : Population.spec), _, _), _) ((b, _, _), _) ->
               Int.compare a.net_id b.net_id)
        |> List.filter_map (function _, Ok (r, _) -> Some r | _, Error _ -> None)
      in
      let invariants = List.length Crosscheck.all_invariants in
      let errors = error_count reports in
      {
        seconds;
        op_ms = latencies results;
        attempted = invariants * List.length results;
        failed =
          (invariants * errors_in results)
          + List.fold_left
              (fun acc (r : Crosscheck.report) -> acc + List.length r.skipped)
              0 reports;
        output = Json.to_string (Crosscheck.to_json reports);
        errors =
          (if errors = 0 then [] else [ Printf.sprintf "crosscheck: %d error violations" errors ]);
        facts = [ ("crosscheck.errors", string_of_int errors) ];
        layers = [];
      }
    in
    (* Each invariant alone, and the simulation alone: the split of the
       round's time that the single [run_analysis] call cannot show. *)
    let decompose o =
      List.iter
        (fun (_, files, (a : Analysis.t)) ->
          List.iter
            (fun inv ->
              ignore
                (Ledger.span (Some o.trace) ("crosscheck." ^ inv) (fun () ->
                     Crosscheck.run_analysis ~invariants:[ inv ] ~files a)))
            Crosscheck.all_invariants;
          ignore
            (Ledger.span (Some o.trace) "sim.propagate" (fun () ->
                 Rd_sim.Propagate.run ~metrics:o.metrics
                   (Rd_routing.Process_graph.build a.catalog))))
        nets
    in
    { inputs = digest_inputs (List.map (fun (_, f, _) -> f) nets); round; decompose }
  in
  { name = "crosscheck"; cold = true; setup }

(* --------------------------------------------------------------- netlint *)

(* Every network linted on one domain; the analyses are set-up, so an
   analysis-layer change must leave this round's time alone. *)
let netlint =
  let setup seed =
    let nets = analyzed (Population.specs ~master_seed:seed) in
    let round ~index:_ obs =
      let trace = trace_of obs and metrics = metrics_of obs in
      let t0 = now () in
      let results =
        Ledger.span trace "round" (fun () ->
            List.map
              (fun (_, files, a) ->
                attempt (fun () ->
                    timed (fun () ->
                        Ledger.span trace "netlint.run" (fun () ->
                            Netlint.run_analysis ?trace ?metrics ~files a))))
              nets)
      in
      let seconds = now () -. t0 in
      let reports = List.map fst (oks results) in
      let e, w, i = Netlint.counts reports in
      {
        seconds;
        op_ms = latencies results;
        attempted = List.length results;
        failed = errors_in results;
        output = Json.to_string (Netlint.to_json reports);
        errors = (if e = 0 then [] else [ Printf.sprintf "netlint: %d error findings" e ]);
        facts = [ ("netlint.counts", Printf.sprintf "%d/%d/%d" e w i) ];
        layers = [];
      }
    in
    (* One family per call, so each family's allocation is a span of its
       own.  Without the texts no call builds line locators, which would
       otherwise be counted once per family. *)
    let decompose o =
      List.iter
        (fun (_, _, a) ->
          List.iter
            (fun f ->
              ignore
                (Ledger.span (Some o.trace) ("netlint." ^ f) (fun () ->
                     Netlint.run_analysis ~rules:[ f ] a)))
            Netlint.all_rules)
        nets
    in
    { inputs = digest_inputs (List.map (fun (_, f, _) -> f) nets); round; decompose }
  in
  { name = "netlint"; cold = true; setup }

let all = [ study; whatif; whatif_warm; crosscheck; netlint ]
