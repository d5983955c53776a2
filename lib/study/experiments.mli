(** One entry point per table/figure of the paper's evaluation.

    Each function renders a report whose rows/series correspond to what
    the paper prints, prefixed with the paper's reference values so shape
    can be compared directly. *)

val fig4 : Population.network -> string
(** Configuration-file size distribution of net5 (Figure 4). *)

val fig8 : master_seed:int -> Population.network list -> string
(** Network size distribution, study vs repository (Figure 8). *)

val table1 : Population.network list -> string
(** Intra/inter role counts per protocol (Table 1). *)

val table3 : Population.network list -> string
(** Interface-type census (Table 3). *)

val fig11 : Population.network list -> string
(** CDF of the percentage of packet-filter rules on internal links
    (Figure 11). *)

val sec7 : Population.network list -> string
(** Design classification and size statistics (§7.1, §7.2). *)

val table1_stats : Netstat.t list -> string
val table3_stats : Netstat.t list -> string
val fig11_stats : Netstat.t list -> string
val sec7_stats : Netstat.t list -> string
(** The same four aggregates over checkpointable {!Netstat.t} digests.
    The network-list entry points above are thin wrappers
    ([f nets = f_stats (List.map Netstat.of_network nets)]), so a
    checkpoint-replayed study report is byte-identical to a fresh one by
    construction. *)

val net5_case : Population.network -> string
(** The net5 case study: instance census, Figure 9/10 structure, the
    six-router redistribution cut (§5.1, §6.1). *)

val net15_case : Population.network -> string
(** The net15 case study: Table 2 policies, empty policy intersections,
    one-way reachability, OSPF load bound (§6.2, Figure 12). *)

val ablation_instances : Population.network list -> string
(** Instance flood-fill vs naive process-id grouping. *)

val ablation_blocks : Population.network -> string
(** Address-block joining threshold sweep. *)

val ablation_ospf_area : Population.network -> string
(** Strict vs ignored OSPF area matching in adjacency computation. *)

val ablation_external : Population.network list -> string
(** /30 rule alone vs /30 + next-hop heuristic for external-facing
    interface detection. *)

val scorecard : master_seed:int -> Population.network list -> string
(** Machine-checked shape verdicts for every reproduced table and figure:
    one PASS/FAIL row per criterion, and a summary line. *)

val scenarios_of_analysis : Rd_core.Analysis.t -> Rd_core.Whatif.scenario list
(** Deterministic per-network maintenance scenarios for what-if sweeps
    (§8.1): take out the last (edge) router, remove an internal link,
    and shut one interface — derived from the network's own topology, so
    every study network gets applicable scenarios without a hand-written
    sweep file. *)

type scenario_summary = {
  label : string;  (** the scenario's label. *)
  changes : string list;  (** {!Rd_core.Whatif.change_to_string} per change. *)
  instances_before : int;
  instances_after : int;
  split : int;  (** instances the scenario split. *)
  lost_pairs : int;  (** instance pairs that lost reachability. *)
  touched : string list;  (** router files the scenario edited. *)
  warnings : string list;
  seconds : float;  (** wall-clock for the scenario, caches included. *)
}
(** What a what-if report shows of one {!Rd_core.Engine.outcome}: the
    per-scenario unit of the table, of the JSON report and of a what-if
    checkpoint entry. *)

val summarize : Rd_core.Engine.outcome -> scenario_summary

val summary_to_json : ?exact:bool -> scenario_summary -> Rd_util.Json.t
(** The JSON record [rdna whatif --json] prints per scenario.  [exact]
    (default [false]) writes [seconds] as a [%h] hex float string
    instead of a JSON number — the checkpoint form, which
    {!whatif_of_json} reads back bit for bit. *)

val whatif_json : ?exact:bool -> string -> scenario_summary list -> Rd_util.Json.t
(** One network's what-if record, [{network, scenarios}] — the element
    of the [networks] array [rdna whatif --study --json] prints and,
    with [exact], the payload of a what-if checkpoint entry. *)

val whatif_of_json : Rd_util.Json.t -> (string * scenario_summary list) option
(** Inverse of [whatif_json ~exact:true]; [None] on any shape mismatch,
    so a stale or foreign checkpoint entry reads as a miss. *)

val whatif_table : (string * scenario_summary list) list -> string
(** The sweep table over [(network label, summaries)] pairs: one row
    per scenario, first column the network label. *)

val render_whatif :
  engine:Rd_core.Engine.t -> (string * scenario_summary list) list -> string
(** The sweep report: heading, {!whatif_table}, and the engine's
    cache-totals line. *)
