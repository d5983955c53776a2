(** Address-space structure discovery (paper §3.4).

    The discovery repeatedly joins pairs of blocks whose network numbers
    differ in no more than the least two bits of the shorter mask —
    i.e. whose common supernet grows a mask by at most two bits — as long
    as at least half of the addresses in the enlarged block are used
    (the paper's exact rule), until no more joins are possible.  The
    result is the set of address blocks that summarize the network's
    addressing plan. *)

open Rd_addr

type block = {
  prefix : Prefix.t;
  used_addresses : int;  (** addresses of the block covered by subnets. *)
  subnets : Prefix.t list;  (** the original subnets inside the block. *)
}

val discover :
  ?metrics:Rd_util.Metrics.t -> ?limits:Rd_util.Limits.t -> ?threshold:float ->
  Prefix.t list -> block list
(** [discover subnets] with [threshold] defaulting to the paper's 0.5.
    Returns maximal blocks in address order.  [threshold] must be in
    (0, 1].  [metrics] accumulates the [blocks.subnets],
    [blocks.merges] (pairwise joins performed), and [blocks.blocks]
    counters.  Raises {!Rd_util.Limits.Budget_exceeded} (site
    ["blocks.subnets"]) when the deduplicated subnet count exceeds
    [limits.max_subnets] (default {!Rd_util.Limits.default}) — callers
    degrade that into a [budget-exceeded] diagnostic. *)

val subnets_of_configs : (string * Rd_config.Ast.t) list -> Prefix.t list
(** Every subnet mentioned in the configurations: interface subnets and
    static-route destinations (deduplicated). *)

type suspect = {
  iface : Rd_topo.Topology.iface;
  inside : block;  (** the internal block the lone interface sits in. *)
}

val suspect_missing_routers : Rd_topo.Topology.t -> block list -> suspect list
(** External-facing interfaces whose address lies in the middle of a block
    heavily used by internal-facing interfaces — likely evidence that the
    peer router's configuration file is missing from the data set
    (paper §3.4). *)

val render : block list -> string
(** One line per block: prefix, usage, subnet count. *)
