(* Benchmark runner: one workload, one seed, one measuring window.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Sets the workload up three times (set-up time is the median), then
   runs rounds until S seconds have passed.  Untraced, it reports the
   end-to-end metrics BENCHMARK.json names; traced, rounds alternate
   untraced and traced and it reports the per-layer metrics, among them
   the tracing overhead between the two kinds of round.  Every metric is
   printed by name with its unit; the last line of standard output is
   one JSON object {correct, attempted, failed, metrics}.  The run's
   full record (and, traced, a Chrome trace) goes to DIR, default
   .rdbench.  Exits 1 when an output check fails, 2 on bad usage. *)

module Json = Rd_util.Json
module Trace = Rd_util.Trace
module Sha1 = Rd_util.Sha1
module W = Rdbench.Workloads
module Stats = Rdbench.Stats
module Ledger = Rdbench.Ledger
module Pset = Rd_addr.Prefix_set

let setups = 3

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("rdbench: " ^ s); exit 2) fmt

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0
let traced = ref (-1)
let out = ref ".rdbench"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       "NAME  " ^ String.concat "|" (List.map (fun (w : W.t) -> w.name) W.all));
      ("--seed", Arg.Set_int seed, "N  input seed (non-negative)");
      ("--seconds", Arg.Set_int seconds, "S  measuring window");
      ("--trace", Arg.Set_int traced, "0|1  per-layer run");
      ("--out", Arg.Set_string out, "DIR  where run records go (default .rdbench)");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]"

let w =
  match List.find_opt (fun (w : W.t) -> w.name = !workload) W.all with
  | Some w -> w
  | None -> die "unknown workload %S" !workload

let () =
  if !seed < 0 then die "--seed must be given, non-negative";
  if !seconds < 1 then die "--seconds must be at least 1";
  if !traced <> 0 && !traced <> 1 then die "--trace must be 0 or 1"

let traced = !traced = 1

(* Metric names and units come from BENCHMARK.json, so the file and the
   runner cannot drift apart silently. *)
let declared key =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> die "cannot read BENCHMARK.json: %s" e
  in
  let bench = match Json.of_string text with Ok j -> j | Error e -> die "BENCHMARK.json: %s" e in
  match Json.member key bench with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> die "BENCHMARK.json: %s entry without name or unit" key)
      l
  | _ -> die "BENCHMARK.json: no %s list" key

let end_to_end = declared "end_to_end"
let per_layer = declared "per_layer"

let () =
  List.iter
    (fun (n, _) -> if not (List.mem n Ledger.metric_names) then die "no per-layer metric %S" n)
    per_layer

let on_fresh_domain f =
  Domain.join (Domain.spawn (fun () -> Fun.protect ~finally:Trace.flush_current_domain f))

let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> nan
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %f kB" Fun.id
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> nan
  in
  kb /. 1024.0

(* ---------------------------------------------------------------- set-up *)

let setup_times, session, input_digests =
  let rec go k times digests =
    Gc.compact ();
    let t0 = Trace.now () in
    let s = w.setup !seed in
    let times = (Trace.now () -. t0) :: times in
    let digests = Lazy.force s.inputs :: digests in
    if k = 1 then (List.rev times, s, digests) else go (k - 1) times digests
  in
  go setups [] []

(* ---------------------------------------------------------------- rounds *)

type measured = {
  round : W.round;
  layers : (string, float) Hashtbl.t option;  (** traced rounds only. *)
}

let last_trace = ref None
let fresh_obs () = { W.trace = Trace.create (); metrics = Rd_util.Metrics.create () }

(* A traced round's allocation and prefix-set activity are read around
   it from this domain, after a full major collection: by then every
   domain the round used has ended and its counts have been merged. *)
let run_round index ~trace =
  Gc.compact ();
  let obs = if trace then Some (fresh_obs ()) else None in
  let gc0 = Gc.quick_stat () and p0 = Pset.stats () in
  let run () = session.round ~index obs in
  let round = if w.cold then on_fresh_domain run else run () in
  let layers =
    Option.map
      (fun (o : W.obs) ->
        Gc.full_major ();
        let gc1 = Gc.quick_stat () and p1 = Pset.stats () in
        let tbl = Ledger.of_round ~trace:o.trace ~metrics:o.metrics in
        let hits = float_of_int (p1.memo_hits - p0.memo_hits) in
        List.iter
          (fun (k, v) -> Hashtbl.replace tbl k v)
          (round.layers
          @ [
              ("gc.minor_mw", (gc1.minor_words -. gc0.minor_words) /. 1e6);
              ("gc.major_mw", (gc1.major_words -. gc0.major_words) /. 1e6);
              ("pset.nodes", float_of_int (p1.nodes - p0.nodes));
              ( "pset.memo_hit_ratio",
                Ledger.ratio hits (hits +. float_of_int (p1.memo_misses - p0.memo_misses)) );
            ]);
        let d = fresh_obs () in
        on_fresh_domain (fun () -> session.decompose d);
        Ledger.of_decomposition tbl ~trace:d.trace ~metrics:d.metrics;
        last_trace := Some (o.trace, d.trace);
        tbl)
      obs
  in
  { round; layers }

let rounds =
  let start = Trace.now () in
  let min_rounds = if traced then 3 else 1 in
  let rec loop i acc =
    if i >= min_rounds && Trace.now () -. start >= float_of_int !seconds then List.rev acc
    else loop (i + 1) (run_round i ~trace:(traced && i mod 2 = 1) :: acc)
  in
  loop 0 []

(* ----------------------------------------------------------- correctness *)

let digests = List.map (fun m -> Sha1.hex_of_string m.round.output) rounds
let first = List.hd rounds

let golden =
  Json.Obj
    (("sha1", Json.String (List.hd digests))
    :: List.map (fun (k, v) -> (k, Json.String v)) first.round.facts)

(* A golden file pins the digests and counts of one seed; on any other
   seed they are printed so two commits can be compared by hand. *)
let golden_errors =
  let path = Filename.concat "rdbench/golden" (string_of_int !seed ^ ".json") in
  if not (Sys.file_exists path) then []
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
    match Result.map (Json.member w.name) (Json.of_string text) with
    | Ok (Some (Json.Obj expected)) ->
      List.filter_map
        (fun (k, v) ->
          let got = Json.member k golden in
          if got = Some v then None
          else
            Some
              (Printf.sprintf "golden %s: expected %s, got %s" k (Json.to_string v)
                 (match got with Some g -> Json.to_string g | None -> "nothing")))
        expected
    | Ok _ -> [ Printf.sprintf "%s has no entry for %s" path w.name ]
    | Error e -> [ Printf.sprintf "%s: %s" path e ]

let errors =
  (if List.for_all (( = ) (List.hd input_digests)) input_digests then []
   else [ "set-ups generated different inputs from one seed" ])
  @ (if List.for_all (( = ) (List.hd digests)) digests then []
     else [ "rounds rendered different outputs" ])
  @ (if List.for_all (fun m -> m.round.facts = first.round.facts) rounds then []
     else [ "rounds reported different results" ])
  @ List.concat_map (fun m -> m.round.errors) rounds
  @ golden_errors

let correct = errors = []

(* --------------------------------------------------------------- metrics *)

let untraced = List.filter (fun m -> m.layers = None) rounds
let traced_tables = List.filter_map (fun m -> m.layers) rounds
let round_seconds ms = List.map (fun m -> m.round.seconds) ms

(* Contention from other tenants of the host only ever adds time, and it
   comes and goes within seconds, so the 25th percentile of the rounds
   (the fastest when there are four or fewer) is much steadier from run
   to run than their median.  Each operation's latency is likewise its
   25th percentile over the rounds; the percentiles are then taken
   across operations. *)
let lower_quartile xs = Stats.percentile xs 25

let op_ms =
  match untraced with
  | [] -> []
  | m :: _ ->
    List.mapi
      (fun i _ ->
        lower_quartile
          (List.filter_map
             (fun m ->
               match List.nth_opt m.round.op_ms i with
               | Some x when not (Float.is_nan x) -> Some x
               | _ -> None)
             untraced))
      m.round.op_ms
    |> List.filter (fun x -> not (Float.is_nan x))

let attempted = List.fold_left (fun acc m -> acc + m.round.attempted) 0 rounds
let failed = List.fold_left (fun acc m -> acc + m.round.failed) 0 rounds

let e2e_values =
  [
    ("setup_s", Stats.median setup_times);
    ("run_s", lower_quartile (round_seconds untraced));
    ("peak_rss_mb", peak_rss_mb ());
  ]

let layer_values =
  if traced_tables = [] then []
  else
    let traced_s =
      lower_quartile (round_seconds (List.filter (fun m -> m.layers <> None) rounds))
    in
    List.map
      (fun name ->
        ( name,
          match name with
          | "trace_overhead" -> (traced_s /. lower_quartile (round_seconds untraced)) -. 1.0
          | "op.p50_ms" -> Stats.percentile op_ms 50
          | "op.p90_ms" -> Stats.percentile op_ms 90
          | _ ->
            Stats.median
              (List.map
                 (fun t -> Option.value ~default:0.0 (Hashtbl.find_opt t name))
                 traced_tables)
        ))
      Ledger.metric_names

let pick declared values =
  List.map
    (fun (n, u) ->
      match List.assoc_opt n values with
      | Some v -> (n, u, v)
      | None -> die "runner computes no metric %S" n)
    declared

let reported = if traced then pick per_layer layer_values else pick end_to_end e2e_values

let metrics_json l =
  Json.Obj
    (List.map
       (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       l)

(* ---------------------------------------------------------------- output *)

let () =
  let n = List.length op_ms in
  Printf.printf "workload %s, seed %d: %d set-ups, %d rounds (%d traced), %d operations a round\n"
    w.name !seed setups (List.length rounds) (List.length traced_tables) n;
  List.iter (fun (name, u, v) -> Printf.printf "  %-34s %14.6f %s\n" name v u) reported;
  Printf.printf "  operation latency: p50 %.3f ms, p90 %.3f ms; %d beyond p90%s\n"
    (Stats.percentile op_ms 50) (Stats.percentile op_ms 90) (Stats.beyond ~n 90)
    (if Stats.supported ~n 90 then "" else " (fewer than ten: read p90 as an outlier)");
  Printf.printf "golden %s\n" (Json.to_string (Json.Obj [ (w.name, golden) ]));
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let base =
    Filename.concat !out (Printf.sprintf "%s-seed%d-trace%d" w.name !seed (Bool.to_int traced))
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p !out;
  Json.to_file (base ^ ".json")
    (Json.Obj
       [
         ("workload", Json.String w.name);
         ("seed", Json.Int !seed);
         ("seconds", Json.Int !seconds);
         ("trace", Json.Int (Bool.to_int traced));
         ("correct", Json.Bool correct);
         ("errors", Json.List (List.map (fun e -> Json.String e) errors));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("ops", Json.Int n);
         ("setup_s", Json.List (List.map (fun s -> Json.Float s) setup_times));
         ("round_s", Json.List (List.map (fun s -> Json.Float s) (round_seconds untraced)));
         ("metrics", metrics_json (pick end_to_end e2e_values));
         ("layers", if traced then metrics_json (pick per_layer layer_values) else Json.Null);
         ("golden", golden);
       ]);
  Option.iter
    (fun (round, decomposition) ->
      let events t =
        match Json.member "traceEvents" (Trace.to_json t) with Some (Json.List l) -> l | _ -> []
      in
      Json.to_file (base ^ ".trace.json")
        (Json.Obj [ ("traceEvents", Json.List (events round @ events decomposition)) ]))
    !last_trace;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics_json reported);
          ]));
  exit (if correct then 0 else 1)
