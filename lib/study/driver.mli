(** Checkpoint-aware, cancellable drivers for the three long-running
    sweeps behind [rdna study], [rdna crosscheck --study] and
    [rdna whatif --study].

    Each driver iterates the study work list ({!Population.wanted_specs})
    through {!Population.supervise}: a run-level {!Rd_util.Cancel}
    token (deadline or SIGINT) fails queued networks fast and stops
    in-flight ones at their next poll, an optional per-network
    [task_timeout] derives a child token clocking from that network's
    start, and every failure — including [Timed_out] — degrades to a
    per-network {!Population.failure} row, never an escaping exception.

    With a {!Checkpoint}, each completed network's result is persisted
    the moment it finishes; with [resume], the checkpoint is probed
    before building and hits are replayed verbatim, which makes an
    interrupted-then-resumed report byte-identical to an uninterrupted
    one (store hit counters prove what was skipped). *)

type study_item = {
  stat : Netstat.t;
  network : Population.network option;
      (** the full analysis when this network was built in-process;
          [None] when the stat was replayed from a checkpoint. *)
}

val study :
  ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t ->
  ?cancel:Rd_util.Cancel.t -> ?task_timeout:float -> ?limits:Rd_util.Limits.t ->
  ?retries:int -> ?jobs:int -> ?checkpoint:Checkpoint.t -> ?resume:bool ->
  ?only:int list -> master_seed:int -> unit ->
  (study_item, Population.failure) result list
(** The supervised study build.  Results stay in net-id order; a
    zero-failure, zero-checkpoint run carries the same networks as
    {!Population.build_results}. *)

val crosscheck :
  ?limits:Rd_util.Limits.t -> ?invariants:string list -> ?trace:Rd_util.Trace.t ->
  ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t ->
  ?task_timeout:float -> ?salt:string list -> ?retries:int -> ?jobs:int ->
  ?checkpoint:Checkpoint.t -> ?resume:bool -> ?only:int list -> master_seed:int ->
  unit ->
  (Population.spec * (Rd_check.Crosscheck.report, Population.failure) result) list
(** The supervised differential cross-check: per network, generate the
    configurations and {!Rd_check.Crosscheck.run} the oracle, or replay
    the checkpointed report.  [invariants] joins the resume key (a
    different invariant selection must miss); [salt] adds further
    key-relevant context, e.g. the fault spec string. *)

val whatif :
  ?metrics:Rd_util.Metrics.t -> ?trace:Rd_util.Trace.t -> ?faults:Rd_util.Fault.t ->
  ?cancel:Rd_util.Cancel.t -> ?task_timeout:float -> ?checkpoint:Checkpoint.t ->
  ?resume:bool -> ?only:int list -> master_seed:int -> unit ->
  string * Population.failure list
(** The checkpointing what-if sweep: one shared {!Rd_core.Engine}
    (necessarily sequential — [jobs] is pinned to 1 so scenario
    artifacts stay warm across networks), per-network scenario rows
    persisted as rendered table cells (wall-clock [seconds] are replayed
    from the checkpoint on resume).  Returns the rendered sweep report
    ({!Experiments.render_whatif} over {!Experiments.whatif_rows}; the
    trailing engine cache-totals line reflects only the networks actually
    computed by this process) plus the per-network failures. *)
