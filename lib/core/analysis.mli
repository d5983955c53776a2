(** One-call analysis pipeline: configuration text to routing design.

    This is the library's front door.  Given a network's configuration
    files it runs, in order: parsing, link/topology inference, process
    cataloguing, adjacency computation, routing-instance flood fill,
    instance-graph construction, address-block discovery, and
    packet-filter statistics — the full methodology of the paper. *)

type t = {
  name : string;
  configs : (string * Rd_config.Ast.t) list;  (** (file name, parsed config). *)
  topo : Rd_topo.Topology.t;
  catalog : Rd_routing.Process.catalog;
  graph : Rd_routing.Instance_graph.t;
  blocks : Rd_addrspace.Blocks.block list;
  filter_stats : Rd_policy.Filter_stats.placement;
  diags : Rd_config.Diag.t list;
      (** parse diagnostics from every file, in file order. *)
}

val analyze :
  ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?jobs:int ->
  ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t -> ?limits:Rd_util.Limits.t ->
  name:string -> (string * string) list -> t
(** [analyze ~name files] where [files] are (file name, raw configuration
    text) pairs.  Parsing fans out across [jobs] pool workers (default
    {!Rd_util.Pool.default_jobs}; order-preserving, so the result is
    identical to a sequential parse).  Parse problems are collected into
    [diags] rather than lost.

    The parse fan-out is supervised: a file whose parse task fails —
    larger than [limits.max_config_bytes], or chaos-killed through
    [faults] — is dropped from the network and recorded as an [Error]
    diagnostic coded [config-failed] (or [budget-exceeded]) on that
    file; the other files and every later stage proceed.  {!summary}
    reports the drop count on a [degraded:] line.

    Fault sites, all keyed so the chaos suite can target one network:
    ["parse.file"] and ["parse.bytes"] (key [<name>/<file>]) around each
    file's parse, and ["analysis.<stage>"] (key [<name>]) at the head of
    every later stage — a fault there aborts the whole analysis, which
    {!Rd_study.Population} degrades into a failed-network record.

    When [trace] is given, the whole call is wrapped in one ["analyze"]
    span (category ["network"]) and each pipeline stage ([parse],
    [topology], [catalog], [instance-graph], [blocks], [filter-stats])
    gets its own span (category ["stage"], with the network name as a
    span argument).  When [metrics] is given, parser, pool, instance,
    and address-block counters accumulate into the registry.  Trace,
    metrics, faults, and limits are all optional and default to off /
    far-above-real-workloads: results are byte-identical with or
    without them. *)

val analyze_asts :
  ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?cancel:Rd_util.Cancel.t ->
  ?diags:Rd_config.Diag.t list ->
  name:string -> (string * Rd_config.Ast.t) list -> t
(** Entry point when configurations are already parsed; [diags] carries
    any diagnostics collected while parsing them.  The stages after
    parsing run as in {!analyze}, under {!Rd_util.Limits.default} and
    with no fault site armed. *)

val router_count : t -> int
val instance_count : t -> int
val largest_instance : t -> Rd_routing.Instance.t option

val internal_bgp_asns : t -> int list
(** Distinct AS numbers of internal BGP instances. *)

val external_asns : t -> int list

val config_sizes : t -> int list
(** Total line count per configuration file (paper Figure 4). *)

val summary : t -> string
(** Multi-line human-readable network summary. *)
