module J = Rd_util.Json

let probe checkpoint ~resume ~stage ~salt spec =
  match checkpoint with
  | Some ck when resume -> Checkpoint.find ck (Checkpoint.key ~stage ~salt spec)
  | _ -> None

let persist checkpoint ~stage ~salt spec json =
  match checkpoint with
  | Some ck -> Checkpoint.save ck (Checkpoint.key ~stage ~salt spec) json
  | None -> ()

let supervise ?jobs ?trace ?metrics ?faults ?cancel ~retries task wanted =
  let results =
    Rd_util.Pool.parallel_map_results ?jobs ?trace ?metrics ?faults ?cancel ~retries task
      wanted
  in
  List.map2
    (fun (spec : Population.spec) -> function
      | Ok v -> Ok v
      | Error f ->
        Rd_util.Metrics.incr metrics "network.degraded";
        Error { Population.spec; failure = f })
    wanted results

(* --- study -------------------------------------------------------------- *)

type study_item = { stat : Netstat.t; network : Population.network option }

let study ?trace ?metrics ?faults ?cancel ?task_timeout ?limits ?(retries = 0) ?jobs
    ?checkpoint ?(resume = false) ?only ~master_seed () =
  let wanted = Population.wanted_specs ?only ~master_seed () in
  let task spec =
    match
      Option.bind (probe checkpoint ~resume ~stage:"study.network" ~salt:[] spec)
        Netstat.of_json
    with
    | Some stat -> { stat; network = None }
    | None ->
      (* Created inside the pool task, so [task_timeout] clocks from the
         moment this network's work starts. *)
      let cancel = Rd_util.Cancel.task ?timeout:task_timeout cancel in
      let network =
        Population.build_network ?trace ?metrics ?jobs ?faults ?cancel ?limits spec
      in
      let stat = Netstat.of_network network in
      persist checkpoint ~stage:"study.network" ~salt:[] spec (Netstat.to_json stat);
      { stat; network = Some network }
  in
  supervise ?jobs ?trace ?metrics ?faults ?cancel ~retries task wanted

(* --- crosscheck --------------------------------------------------------- *)

let crosscheck ?limits ?invariants ?trace ?metrics ?faults ?cancel ?task_timeout
    ?(salt = []) ?(retries = 0) ?jobs ?checkpoint ?(resume = false) ?only ~master_seed ()
    =
  let wanted = Population.wanted_specs ?only ~master_seed () in
  let salt =
    (match invariants with
     | None -> []
     | Some l -> [ "invariants=" ^ String.concat "," l ])
    @ salt
  in
  let task (spec : Population.spec) =
    match
      Option.bind (probe checkpoint ~resume ~stage:"crosscheck.network" ~salt spec)
        Rd_check.Crosscheck.report_of_json
    with
    | Some report -> report
    | None ->
      let cancel = Rd_util.Cancel.task ?timeout:task_timeout cancel in
      let report =
        Rd_check.Crosscheck.run ?limits ?cancel ?faults ?invariants ~name:spec.label
          (Population.generate_one spec)
      in
      persist checkpoint ~stage:"crosscheck.network" ~salt spec
        (Rd_check.Crosscheck.report_to_json report);
      report
  in
  List.combine wanted (supervise ?jobs ?trace ?metrics ?faults ?cancel ~retries task wanted)

(* --- whatif ------------------------------------------------------------- *)

let rows_to_json rows =
  J.Obj
    [
      ( "rows",
        J.List (List.map (fun row -> J.List (List.map (fun c -> J.String c) row)) rows) );
    ]

let rows_of_json j =
  let cell = function J.String s -> Some s | _ -> None in
  let row = function
    | J.List cells ->
      List.fold_right
        (fun c acc -> Option.bind acc (fun acc -> Option.map (fun c -> c :: acc) (cell c)))
        cells (Some [])
    | _ -> None
  in
  match J.member "rows" j with
  | Some (J.List rows) ->
    List.fold_right
      (fun r acc -> Option.bind acc (fun acc -> Option.map (fun r -> r :: acc) (row r)))
      rows (Some [])
  | _ -> None

let whatif ?metrics ?trace ?faults ?cancel ?task_timeout ?checkpoint ?(resume = false)
    ?only ~master_seed () =
  let wanted = Population.wanted_specs ?only ~master_seed () in
  let engine = Rd_core.Engine.create ?metrics ?trace ?cancel () in
  let task (spec : Population.spec) =
    match
      Option.bind (probe checkpoint ~resume ~stage:"whatif.network" ~salt:[] spec)
        rows_of_json
    with
    | Some rows -> rows
    | None ->
      let tok = Rd_util.Cancel.task ?timeout:task_timeout cancel in
      let eng = Rd_core.Engine.with_cancel engine tok in
      Rd_util.Fault.fault_point faults ~site:"whatif.network" ~key:spec.label;
      Rd_util.Cancel.check ~site:"whatif.network" tok;
      let net = Rd_core.Engine.load eng ~name:spec.label (Population.generate_one spec) in
      let rows =
        Experiments.whatif_rows spec.label
          (Rd_core.Engine.run_scenarios eng net
             (Experiments.scenarios_of_analysis net.analysis))
      in
      persist checkpoint ~stage:"whatif.network" ~salt:[] spec (rows_to_json rows);
      rows
  in
  (* One shared engine means one worker: the sweep's whole point is that
     later networks probe artifacts the earlier ones warmed. *)
  let results = supervise ~jobs:1 ?trace ?metrics ?faults ?cancel ~retries:0 task wanted in
  let rows = List.concat_map (function Ok r -> r | Error _ -> []) results in
  let failures = List.filter_map (function Error f -> Some f | Ok _ -> None) results in
  (Experiments.render_whatif ~engine rows, failures)
