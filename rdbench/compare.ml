(* Compare two sets of untraced benchmark runs.

     compare.exe PARENT_DIR CHANGE_DIR

   Each directory holds the run records main.exe wrote with --out.  For
   every workload and end-to-end metric in BENCHMARK.json this prints
   each side's median and quartiles with the run count, and a verdict
   (see Rdbench.Verdict) against the metric's bound.  Runs are paired by
   seed.  Exits 1 when any verdict is "worse". *)

module Json = Rd_util.Json
module Stats = Rdbench.Stats
module Verdict = Rdbench.Verdict

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let parse path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let str key j = match Json.member key j with Some (Json.String s) -> Some s | _ -> None

let num = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* (workload, seed, metric values) of every untraced run record. *)
let runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         Filename.check_suffix f ".json" && not (Filename.check_suffix f ".trace.json"))
  |> List.filter_map (fun f ->
         let j = parse (Filename.concat dir f) in
         let field k = Json.member k j in
         match (str "workload" j, field "seed", field "trace", field "metrics") with
         | Some wl, Some (Json.Int seed), Some (Json.Int 0), Some (Json.Obj ms) ->
           let value (n, m) = Option.map (fun v -> (n, v)) (num (Json.member "value" m)) in
           Some (wl, seed, List.filter_map value ms)
         | _ -> None)

(* (seed, value) of one metric on one workload. *)
let values side wl name =
  List.filter_map
    (fun (w, seed, ms) ->
      if w = wl then Option.map (fun v -> (seed, v)) (List.assoc_opt name ms) else None)
    side

let cell vs =
  let q1, q2, q3 = Stats.quartiles vs in
  Printf.sprintf "%.4g [%.4g, %.4g] n=%d" q2 q1 q3 (List.length vs)

let () =
  let parent_dir, change_dir =
    match Sys.argv with
    | [| _; p; c |] -> (p, c)
    | _ -> die "usage: compare.exe PARENT_DIR CHANGE_DIR"
  in
  let bench = parse "BENCHMARK.json" in
  let list key =
    match Json.member key bench with
    | Some (Json.List l) -> l
    | _ -> die "BENCHMARK.json: no %s list" key
  in
  let metrics =
    List.filter_map
      (fun m ->
        match (str "name" m, str "better" m, num (Json.member "bound" m)) with
        | Some n, Some b, Some bound -> Some (n, b = "lower", bound)
        | _ -> None)
      (list "end_to_end")
  in
  let parent = runs parent_dir and change = runs change_dir in
  let rows =
    List.concat_map
      (fun wl ->
        List.filter_map
          (fun (name, lower_is_better, bound) ->
            let p = values parent wl name and c = values change wl name in
            if p = [] || c = [] then None
            else
              let pairs =
                List.filter_map
                  (fun (seed, pv) -> Option.map (fun cv -> (pv, cv)) (List.assoc_opt seed c))
                  p
              in
              let p = List.map snd p and c = List.map snd c in
              let v = Verdict.judge ~lower_is_better ~bound ~parent:p ~change:c ~pairs in
              Some ([ wl; name; cell p; cell c; Verdict.to_string v ], v))
          metrics)
      (List.filter_map (str "name") (list "workloads"))
  in
  if rows = [] then die "no workload has untraced runs on both sides";
  Rd_util.Table.print
    ~headers:[ "workload"; "metric"; "parent median [q1, q3]"; "change median [q1, q3]"; "verdict" ]
    (List.map fst rows);
  exit (if List.exists (fun (_, v) -> v = Verdict.Worse) rows then 1 else 0)
