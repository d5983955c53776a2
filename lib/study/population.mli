(** The 31-network study population (paper §4).

    The population mirrors every marginal the paper reports: 4 textbook
    backbones of 450-600 routers (mean 540), 7 textbook enterprises of
    19-101 routers, and 20 other networks of 4-1750 routers (median 36,
    four of them larger than the largest backbone: 760, 881, 1430, 1750);
    net5 is the 881-router compartmentalized network, net15 the 79-router
    restricted-reachability network; three networks use no BGP and three
    define no packet filters.  Router total: 8,035 — the paper's
    configuration-file count. *)

type spec = {
  net_id : int;  (** 1-based network number (net5, net15, ...). *)
  label : string;
  arch : Rd_gen.Archetype.t;
  n : int;  (** router count. *)
  use_bgp : bool;
  use_filters : bool;
  seed : int;
}

val specs : master_seed:int -> spec list
(** The 31 specifications in net-id order. *)

val generate_one : spec -> (string * string) list
(** Configuration files for one network. *)

val wanted_specs : ?only:int list -> master_seed:int -> unit -> spec list
(** The study specs restricted to [only] net ids (all 31 when omitted) —
    the work list every study-population driver iterates in net-id
    order. *)

type network = { spec : spec; analysis : Rd_core.Analysis.t }

val build_network :
  ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?jobs:int ->
  ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t -> ?limits:Rd_util.Limits.t ->
  spec -> network
(** Generate, render to text, re-parse, analyze.  [trace] additionally
    records a [generate] stage span ahead of the analysis stages.
    [faults] arms the ["study.network"] site (key = the network label)
    ahead of the analysis, plus every parse/analysis site below it. *)

type failure = { spec : spec; failure : Rd_util.Pool.failure }
(** A network whose task raised: which spec, plus the terminal
    exception, its site (when a fault/budget site is known), attempt
    count, and elapsed time. *)

val supervise :
  ?jobs:int -> ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t ->
  ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t -> ?task_timeout:float ->
  ?retries:int -> (Rd_util.Cancel.t option -> spec -> 'a) -> spec list ->
  ('a, failure) result list
(** [supervise task wanted] runs [task token spec] for every spec on
    [jobs] pool workers ({!Rd_util.Pool.parallel_map_results}) — the
    one execution path behind {!build_results} and [Driver.sweep].  Results stay in [wanted] order; each failure
    becomes a {!failure} row and bumps the [network.degraded] metrics
    counter.  [retries] (default 0) re-runs a failed network up to that
    many extra times.

    [cancel] is the run-level token: tripping it (deadline or SIGINT)
    stops in-flight tasks at their next poll and fails queued ones fast,
    each as a [Timed_out] failure.  The [token] each task receives is
    {!Rd_util.Cancel.task} of [cancel] with [task_timeout], created
    inside the pool task so its budget clocks from that network's start
    — one slow network degrades alone. *)

val build_results :
  ?only:int list -> ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t ->
  ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t -> ?task_timeout:float ->
  ?limits:Rd_util.Limits.t -> ?retries:int -> ?jobs:int ->
  master_seed:int -> unit -> (network, failure) result list
(** Build the population (or the networks whose ids are in [only])
    under {!supervise}: every requested network flows through the full
    text pipeline ({!build_network}) and yields [Ok] or a {!failure};
    one bad network never aborts the other thirty.  Networks build in
    parallel on [jobs] pool workers (default
    {!Rd_util.Pool.default_jobs}); because every network is seeded from
    its own spec, the result is byte-identical to a sequential
    ([jobs = 1]) build, in net-id order. *)

val build :
  ?only:int list -> ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?jobs:int ->
  ?faults:Rd_util.Fault.t -> ?limits:Rd_util.Limits.t ->
  master_seed:int -> unit -> network list
(** {!build_results} for callers that need every network: when any
    network failed, re-raise the lowest net id's exception with its
    original backtrace ({!Rd_util.Pool.reraise}).  Every network is
    attempted first, so which failure escapes never depends on the
    schedule. *)

val partition : ('a, failure) result list -> 'a list * failure list
(** Split into (survivors, failures), both order-preserving. *)

val render_failures : total:int -> failure list -> string
(** The failed-network report: a [--- failed networks (k of n) ---]
    header plus one table row per failure (network, routers, site,
    error).  This exact text is what [rdna study] prints and what the
    chaos-smoke golden file pins down. *)

val repository_sizes : master_seed:int -> count:int -> int list
(** Synthetic sizes for the 2,400-network repository of Figure 8 (heavy-
    tailed, dominated by small networks). *)

val total_routers : master_seed:int -> int
(** Router count summed over the whole population (paper: 8,035 configs). *)
