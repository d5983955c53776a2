open Rd_addr
module Cache = Rd_util.Cache

(* Bump a stage version whenever that stage's semantics change: every
   key derived for the stage changes with it, which is the whole
   invalidation story for in-process stores (DESIGN.md §14). *)
let parse_version = 1
let analysis_version = 1
let reach_version = 1
let whatif_version = 1

type t = {
  metrics : Rd_util.Metrics.t option;
  trace : Rd_util.Trace.t option;
  cancel : Rd_util.Cancel.t option;
  parses : ((string * Rd_config.Ast.t) * Rd_config.Diag.t list) Cache.t;
  analyses : Analysis.t Cache.t;
  reaches : Rd_reach.Reachability.t Cache.t;
  whatifs : Whatif.delta Cache.t;
}

let create ?metrics ?trace ?cancel ?capacity () =
  let cache name = Cache.create ?capacity ~name () in
  (* Parsed ASTs are small and numerous (one per router, hundreds per
     large network); a store sized for whole-network artifacts would
     evict mid-load and never hit.  64x the artifact capacity keeps a
     study-scale population of files resident. *)
  let parse_capacity = 64 * Option.value ~default:256 capacity in
  {
    metrics;
    trace;
    cancel;
    parses = Cache.create ~capacity:parse_capacity ~name:"parse" ();
    analyses = cache "analysis";
    reaches = cache "reach";
    whatifs = cache "whatif";
  }

let with_cancel t cancel = { t with cancel }

let memo t cache k f =
  Cache.find_or_add ?metrics:t.metrics ?trace:t.trace cache k f

(* A file's parse key covers its name and bytes; a network's analysis key
   covers its name and every file key in order, so editing any file's
   bytes or reordering the files (file order is analysis-relevant)
   changes it. *)
let file_key file text = Cache.key ~stage:"parse" ~version:parse_version [ file; text ]

let network_key ~name files =
  Cache.key ~stage:"analysis" ~version:analysis_version
    (name :: List.map (fun (f, text) -> Cache.hex (file_key f text)) files)

type network = { name : string; key : Cache.key; analysis : Analysis.t }

let load t ~name files =
  let key = network_key ~name files in
  let analysis =
    memo t t.analyses key (fun () ->
        let parsed =
          List.map
            (fun (f, text) ->
              memo t t.parses (file_key f text) (fun () ->
                  let ast, ds =
                    Rd_config.Parser.parse_with_diags ?metrics:t.metrics ?cancel:t.cancel
                      ~file:f text
                  in
                  ((f, ast), ds)))
            files
        in
        Analysis.analyze_asts ?trace:t.trace ?metrics:t.metrics ?cancel:t.cancel
          ~diags:(List.concat_map snd parsed)
          ~name (List.map fst parsed))
  in
  { name; key; analysis }

(* Offers take part in reachability keys; [to_prefixes] is canonical for
   a set, so equal sets render equally. *)
let offers_repr s = String.concat "," (List.map Prefix.to_string (Prefix_set.to_prefixes s))

let reach_key ~of_key offers =
  Cache.key ~stage:"reach" ~version:reach_version [ Cache.hex of_key; offers_repr offers ]

let reachability ?(external_offers = Prefix_set.full) t net =
  memo t t.reaches (reach_key ~of_key:net.key external_offers) (fun () ->
      Rd_reach.Reachability.compute ?metrics:t.metrics ?cancel:t.cancel ~external_offers
        net.analysis.graph)

type outcome = {
  scenario : Whatif.scenario;
  diff : Whatif.diff;
  touched : string list;
  seconds : float;
}

let run_scenario t net (scenario : Whatif.scenario) =
  let start = Rd_util.Trace.now () in
  (* Baseline and scenario sides are both scored under an empty external
     offer (see Whatif.compare); the baseline fixpoint is shared by every
     scenario of a sweep through the reach store. *)
  let rb = reachability ~external_offers:Prefix_set.empty t net in
  let dkey =
    Cache.key ~stage:"whatif" ~version:whatif_version
      [ Cache.hex net.key; Whatif.scenario_to_string scenario ]
  in
  let d = memo t t.whatifs dkey (fun () -> Whatif.apply net.analysis scenario.changes) in
  (* Keyed by the scenario, so a repeated sweep probes the reach store. *)
  let ra =
    reachability ~external_offers:Prefix_set.empty t
      { name = net.name; key = dkey; analysis = d.analysis }
  in
  let diff =
    Whatif.compare ~warnings:d.warnings ~reach_before:rb ~reach_after:ra
      ~before:net.analysis ~after:d.analysis ()
  in
  { scenario; diff; touched = d.touched; seconds = Rd_util.Trace.now () -. start }

let run_scenarios t net scenarios = List.map (run_scenario t net) scenarios

let stats t =
  [
    ("parse", Cache.stats t.parses);
    ("analysis", Cache.stats t.analyses);
    ("reach", Cache.stats t.reaches);
    ("whatif", Cache.stats t.whatifs);
  ]
