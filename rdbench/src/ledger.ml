(* Bench-side spans and the per-layer ledger computed from a traced round.

   The bench wraps every call it makes into the system in a span on the
   same [Rd_util.Trace] recorder the library's own spans (analysis
   stages, netlint families, cache misses, pool tasks) go to, so the two
   nest.  A layer's time is the self time of the spans attributed to
   it, summed over domains. *)

module Trace = Rd_util.Trace

(* Spans of category ["wait"] mostly wait for pool workers on other
   domains; they are left out of the coverage denominator.  Each bench
   span records the words its own domain allocated: [Gc.minor_words] is
   exact for the calling domain, whereas [Gc.quick_stat] taken mid-run
   folds in other domains' counts at unpredictable moments. *)
let span ?(cat = "bench") trace name f =
  match trace with
  | None -> f ()
  | Some _ ->
    let w0 = Gc.minor_words () in
    let h = Trace.begin_span ~cat trace name in
    Fun.protect
      ~finally:(fun () ->
        Trace.end_span h ~args:[ ("minor_mw", Trace.Float ((Gc.minor_words () -. w0) /. 1e6)) ])
      f

(* ------------------------------------------------------------ self time *)

type node = {
  span : Trace.span;
  parent : string option;  (** name of the enclosing span on the same domain. *)
  self_us : float;  (** duration minus the direct children on the same domain. *)
}

(* Within one domain spans nest properly and carry their depth, so a
   start-ordered scan with a stack finds each span's parent.  Spans on
   other domains (pool workers) never count as children. *)
let self_times (spans : Trace.span list) =
  let tids = List.sort_uniq Int.compare (List.map (fun (s : Trace.span) -> s.tid) spans) in
  List.concat_map
    (fun tid ->
      let a =
        spans
        |> List.filter (fun (s : Trace.span) -> s.tid = tid)
        |> List.stable_sort (fun (x : Trace.span) (y : Trace.span) ->
               match Float.compare x.ts_us y.ts_us with
               | 0 -> Int.compare x.depth y.depth
               | c -> c)
        |> Array.of_list
      in
      let n = Array.length a in
      let parent = Array.make n (-1) and children = Array.make n 0.0 in
      let stack = ref [] in
      Array.iteri
        (fun i (s : Trace.span) ->
          let rec pop = function
            | j :: rest when a.(j).depth >= s.depth -> pop rest
            | st -> st
          in
          stack := pop !stack;
          (match !stack with
           | j :: _ ->
             parent.(i) <- j;
             children.(j) <- children.(j) +. s.dur_us
           | [] -> ());
          stack := i :: !stack)
        a;
      List.init n (fun i ->
          {
            span = a.(i);
            parent = (if parent.(i) < 0 then None else Some a.(parent.(i)).name);
            self_us = a.(i).dur_us -. children.(i);
          }))
    tids

(* ---------------------------------------------------------------- layers *)

let netlint_families = Rd_core.Netlint.all_rules
let invariants = Rd_check.Crosscheck.all_invariants

let arg key (s : Trace.span) = List.assoc_opt key s.args

(* Which layer a span's self time belongs to.  Library stage spans keep
   their names; cache misses are attributed by store, and a reachability
   miss inside a scenario is the delta restart. *)
let layer_of n =
  match n.span.name with
  | ("parse" | "topology" | "catalog" | "blocks" | "report" | "engine.load"
    | "reach.compute" | "crosscheck.run" | "netlint.run") as l ->
    Some l
  | "instance-graph" -> Some "instance_graph"
  | "filter-stats" -> Some "filter_stats"
  | "whatif.scenario" -> Some "whatif.compare"
  | "cache.miss" -> (
    match arg "cache" n.span with
    | Some (Trace.String "parse") -> Some "parse"
    | Some (Trace.String "analysis") -> Some "engine.load"
    | Some (Trace.String "whatif") -> Some "whatif.apply_delta"
    | Some (Trace.String "reach") ->
      Some (if n.parent = Some "whatif.scenario" then "reach.compute_delta" else "reach.compute")
    | _ -> None)
  | name when List.exists (fun f -> name = "netlint." ^ f) netlint_families -> Some name
  | _ -> None

let time_layers =
  [
    "parse"; "topology"; "catalog"; "instance_graph"; "blocks"; "filter_stats"; "report";
    "engine.load"; "whatif.apply_delta"; "whatif.compare"; "reach.compute";
    "reach.compute_delta"; "crosscheck.run"; "netlint.run";
  ]
  @ List.map (fun f -> "netlint." ^ f) netlint_families

(* Every per-layer metric the runner can report, so a name listed in
   BENCHMARK.json that no code computes is caught rather than read as
   zero. *)
let metric_names =
  List.map (fun l -> l ^ ".s") time_layers
  @ [
      "parse.lines"; "instance.graph_edges"; "blocks.subnets"; "reach.delta.carried_frac";
      "reach.fixpoint_iterations";
    ]
  @ List.concat_map
      (fun store -> [ "cache." ^ store ^ ".hits"; "cache." ^ store ^ ".misses" ])
      [ "parse"; "analysis"; "reach"; "whatif" ]
  @ List.map (fun i -> "crosscheck." ^ i ^ ".s") invariants
  @ [ "sim.propagate.s"; "propagate.fixpoint_iterations"; "propagate.routes_installed" ]
  @ List.concat_map
      (fun f -> [ "netlint." ^ f ^ ".findings"; "netlint." ^ f ^ ".minor_mw" ])
      netlint_families
  @ [
      "pset.nodes"; "pset.memo_hit_ratio"; "pool.queue_wait_ms.p50"; "pool.utilization";
      "pool.tasks"; "gc.minor_mw"; "gc.major_mw"; "layer_coverage"; "trace_overhead";
      "op.p50_ms"; "op.p90_ms";
    ]

let float_arg key s =
  match arg key s with
  | Some (Trace.Float f) -> f
  | Some (Trace.Int i) -> float_of_int i
  | _ -> 0.0

let counter metrics name =
  float_of_int (Option.value ~default:0 (Rd_util.Metrics.counter_value metrics name))

let ratio num den = if den = 0.0 then 0.0 else num /. den

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Median of a histogram by linear interpolation inside the bucket that
   holds it. *)
let histogram_p50 metrics name =
  match Rd_util.Metrics.find_histogram metrics name with
  | None -> 0.0
  | Some h when h.count = 0 -> 0.0
  | Some h ->
    let half = float_of_int h.count /. 2.0 in
    let rec go lo seen = function
      | [] -> h.max
      | (hi, c) :: rest ->
        let seen' = seen +. float_of_int c in
        if seen' >= half && c > 0 then lo +. ((hi -. lo) *. (half -. seen) /. float_of_int c)
        else go hi seen' rest
    in
    go 0.0 0.0 h.buckets

(* The per-layer table of one traced round: self times from the round's
   trace and counters from its metrics registry. *)
let of_round ~trace ~metrics =
  let nodes = self_times (Trace.spans trace) in
  let tbl = Hashtbl.create 64 in
  let add = add tbl in
  let attributed = ref 0.0 and busy = ref 0.0 in
  List.iter
    (fun n ->
      if n.span.cat <> "wait" then busy := !busy +. n.self_us;
      match layer_of n with
      | Some l ->
        add (l ^ ".s") (n.self_us /. 1e6);
        attributed := !attributed +. n.self_us
      | None -> ())
    nodes;
  add "layer_coverage" (ratio !attributed !busy);
  List.iter
    (fun c -> add c (counter metrics c))
    [
      "parse.lines"; "instance.graph_edges"; "blocks.subnets"; "reach.fixpoint_iterations";
      "pool.tasks";
    ];
  let carried = counter metrics "reach.delta.carried" in
  add "reach.delta.carried_frac" (ratio carried (carried +. counter metrics "reach.delta.dirty"));
  List.iter
    (fun f -> add ("netlint." ^ f ^ ".findings") (counter metrics ("netlint." ^ f)))
    netlint_families;
  add "pool.queue_wait_ms.p50" (histogram_p50 metrics "pool.queue_wait_ms");
  let snap = Rd_util.Metrics.snapshot metrics in
  add "pool.utilization"
    (Option.value ~default:0.0 (List.assoc_opt "pool.utilization" snap.gauges));
  tbl

(* Layers measured by the decomposition pass that follows a traced
   round: each crosscheck invariant and the propagation simulation on
   their own, and each netlint family's allocation. *)
let of_decomposition tbl ~trace ~metrics =
  let add = add tbl in
  List.iter
    (fun (s : Trace.span) ->
      if s.name = "sim.propagate" || String.starts_with ~prefix:"crosscheck." s.name then
        add (s.name ^ ".s") (s.dur_us /. 1e6)
      else if String.starts_with ~prefix:"netlint." s.name then
        add (s.name ^ ".minor_mw") (float_arg "minor_mw" s))
    (Trace.spans trace);
  List.iter
    (fun c -> add c (counter metrics c))
    [ "propagate.fixpoint_iterations"; "propagate.routes_installed" ]
