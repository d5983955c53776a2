(** The one study sweep behind every [--study] subcommand: [rdna study],
    [rdna crosscheck --study], [rdna whatif --study] (table and JSON)
    and [rdna netlint --study].

    {!sweep} iterates the study work list ({!Population.wanted_specs})
    through {!Population.supervise}: a run-level {!Rd_util.Cancel}
    token (deadline or SIGINT) fails queued networks fast and stops
    in-flight ones at their next poll, an optional per-network
    [task_timeout] derives a child token clocking from that network's
    start, and every failure — including [Timed_out] — degrades to a
    per-network {!Population.failure} row, never an escaping exception.

    With a {!Checkpoint}, each completed network's result is persisted
    the moment it finishes; with [resume], the checkpoint is probed
    before the task runs and hits are replayed verbatim, which makes an
    interrupted-then-resumed report byte-identical to an uninterrupted
    one (store hit counters prove what was skipped).

    A subcommand supplies only its per-network {!task}: what to compute
    for one network and how its result is checkpointed. *)

type 'a task = {
  stage : string;  (** checkpoint stage of the resume key, e.g. [study.network]. *)
  salt : string list;
      (** further key-relevant context: a different salt misses on resume. *)
  to_json : 'a -> Rd_util.Json.t;  (** checkpoint payload encoding. *)
  of_json : Rd_util.Json.t -> 'a option;
      (** inverse of [to_json]; [None] (a miss) on any shape mismatch. *)
  run : Rd_util.Cancel.t option -> Population.spec -> 'a;
      (** the network's work, under its per-network token. *)
}

val sweep :
  ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t ->
  ?cancel:Rd_util.Cancel.t -> ?task_timeout:float -> ?retries:int -> ?jobs:int ->
  ?checkpoint:Checkpoint.t -> ?resume:bool -> ?only:int list -> master_seed:int ->
  'a task -> ('a, Population.failure) result list
(** Run [task] over the study networks whose ids are in [only] (all 31
    when omitted) on [jobs] pool workers, probing and persisting
    [checkpoint] around each network ({!Checkpoint.key} of the task's
    [stage] and [salt]).  Results stay in net-id order. *)

(** {1 Tasks} *)

type study_item = {
  stat : Netstat.t;
  network : Population.network option;
      (** the full analysis when this network was built in-process;
          [None] when the stat was replayed from a checkpoint. *)
}

val study :
  ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?jobs:int ->
  ?faults:Rd_util.Fault.t -> unit -> study_item task
(** The study build ({!Population.build_network}), checkpointed as a
    {!Netstat.t}.  A zero-failure, zero-checkpoint sweep carries the
    same networks as {!Population.build_results}. *)

val crosscheck :
  ?faults:Rd_util.Fault.t -> ?invariants:string list -> ?salt:string list -> unit ->
  Rd_check.Crosscheck.report task
(** The differential cross-check: generate the configurations and
    {!Rd_check.Crosscheck.run} the oracle.  [invariants] joins the
    resume key (a different invariant selection must miss); [salt] adds
    further key-relevant context, e.g. the fault spec string. *)

val whatif : Rd_core.Engine.t -> (string * Experiments.scenario_summary list) task
(** The what-if sweep over one shared engine: load the network and run
    its {!Experiments.scenarios_of_analysis}, yielding the network label
    and one summary per scenario, checkpointed by
    [Experiments.whatif_json ~exact:true] so replayed [seconds] are
    exact.  Sweep it with [jobs = 1], so later networks probe the
    artifacts earlier ones warmed; the engine's cache totals then cover
    only the networks this process computed. *)

val netlint : ?jobs:int -> ?rules:string list -> unit -> Rd_core.Netlint.report task
(** Network-wide lint: analyze the generated configurations and
    {!Rd_core.Netlint.run_analysis} them, both under the network's
    token, so a per-network timeout covers the lint phase too.  Lint
    reports have no decoder: a netlint checkpoint entry never replays. *)
