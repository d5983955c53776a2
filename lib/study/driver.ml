module J = Rd_util.Json

type 'a task = {
  stage : string;
  salt : string list;
  to_json : 'a -> J.t;
  of_json : J.t -> 'a option;
  run : Rd_util.Cancel.t option -> Population.spec -> 'a;
}

let sweep ?trace ?metrics ?faults ?cancel ?task_timeout ?retries ?jobs ?checkpoint
    ?(resume = false) ?only ~master_seed t =
  let key spec = Checkpoint.key ~stage:t.stage ~salt:t.salt spec in
  let run tok spec =
    let replayed =
      match checkpoint with
      | Some ck when resume -> Option.bind (Checkpoint.find ck (key spec)) t.of_json
      | _ -> None
    in
    match replayed with
    | Some v -> v
    | None ->
      let v = t.run tok spec in
      Option.iter (fun ck -> Checkpoint.save ck (key spec) (t.to_json v)) checkpoint;
      v
  in
  Population.supervise ?jobs ?trace ?metrics ?faults ?cancel ?task_timeout ?retries run
    (Population.wanted_specs ?only ~master_seed ())

(* --- study -------------------------------------------------------------- *)

type study_item = { stat : Netstat.t; network : Population.network option }

let study ?trace ?metrics ?jobs ?faults () =
  {
    stage = "study.network";
    salt = [];
    to_json = (fun i -> Netstat.to_json i.stat);
    of_json = (fun j -> Option.map (fun stat -> { stat; network = None }) (Netstat.of_json j));
    run =
      (fun cancel spec ->
        let network = Population.build_network ?trace ?metrics ?jobs ?faults ?cancel spec in
        { stat = Netstat.of_network network; network = Some network });
  }

(* --- crosscheck --------------------------------------------------------- *)

let crosscheck ?faults ?invariants ?(salt = []) () =
  {
    stage = "crosscheck.network";
    salt =
      (match invariants with
       | None -> salt
       | Some l -> ("invariants=" ^ String.concat "," l) :: salt);
    to_json = Rd_check.Crosscheck.report_to_json;
    of_json = Rd_check.Crosscheck.report_of_json;
    run =
      (fun cancel (spec : Population.spec) ->
        Rd_check.Crosscheck.run ?cancel ?faults ?invariants ~name:spec.label
          (Population.generate_one spec));
  }

(* --- whatif ------------------------------------------------------------- *)

let whatif engine =
  {
    stage = "whatif.network";
    salt = [];
    to_json = (fun (network, summaries) -> Experiments.whatif_json ~exact:true network summaries);
    of_json = Experiments.whatif_of_json;
    run =
      (fun cancel (spec : Population.spec) ->
        Rd_util.Cancel.check ~site:"whatif.network" cancel;
        let eng = Rd_core.Engine.with_cancel engine cancel in
        let net = Rd_core.Engine.load eng ~name:spec.label (Population.generate_one spec) in
        ( spec.label,
          List.map Experiments.summarize
            (Rd_core.Engine.run_scenarios eng net
               (Experiments.scenarios_of_analysis net.analysis)) ));
  }

(* --- netlint ------------------------------------------------------------ *)

let netlint ?jobs ?rules () =
  {
    stage = "netlint.network";
    salt = [];
    to_json = (fun r -> Rd_core.Netlint.to_json [ r ]);
    (* Lint reports have no decoder: a netlint entry never replays. *)
    of_json = (fun _ -> None);
    run =
      (fun cancel (spec : Population.spec) ->
        let files = Population.generate_one spec in
        Rd_core.Netlint.run_analysis ?cancel ?rules ~files
          (Rd_core.Analysis.analyze ?jobs ?cancel ~name:spec.label files));
  }
