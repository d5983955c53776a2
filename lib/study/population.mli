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
  ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t -> spec -> network
(** Generate, render to text, re-parse, analyze.  [trace] additionally
    records a [generate] stage span ahead of the analysis stages.
    [faults] arms the ["study.network"] site (key = the network label)
    ahead of the analysis, plus every parse/analysis site below it. *)

type failure = { spec : spec; failure : Rd_util.Pool.failure }
(** A network whose task raised: which spec, plus the terminal
    exception, its site (when a fault/budget site is known), attempt
    count, and elapsed time. *)

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
