(** Differential cross-check of the two reachability engines.

    The repo holds two independent answers to "which destinations can
    this part of the network route to": the concrete route-propagation
    simulator ({!Rd_sim.Propagate}) and the instance-level static
    fixpoint ({!Rd_reach.Reachability}, a deliberate over-approximation
    in the CMU-CS-04-146 style).  Nothing forces them to agree — this
    module checks the soundness relation between them (the sim⊆static
    oracle) plus a catalogue of metamorphic invariants the analysis
    pipeline must satisfy, and reports violations as structured,
    severity-graded records.  See DESIGN.md §13 for the soundness
    argument and the invariant catalogue. *)

type violation = {
  severity : Rd_config.Diag.severity;
  invariant : string;  (** stable kebab-case id, e.g. ["sim-subset-static"]. *)
  subject : string;  (** instance / router the violation points at. *)
  detail : string;
}

type report = {
  network : string;
  routers : int;
  instances : int;
  converged : bool;
      (** the simulation reached fixpoint within the round budget; when
          [false] the oracle is skipped (an unconverged simulation is an
          under-approximation of an under-approximation — containment
          against it proves nothing). *)
  approx : bool;
      (** some config holds an ACL or route-map, referenced or not,
          whose static lowering is an admitted over-approximation (not
          {!Rd_policy.Acl.exact} / {!Rd_policy.Route_map.exact}) —
          containment violations are then downgraded to warnings. *)
  checked : string list;  (** invariants that ran to completion. *)
  skipped : (string * string) list;  (** (invariant, reason) pairs. *)
  violations : violation list;
}

val all_invariants : string list
(** The invariant catalogue, in run order: [sim-subset-static],
    [anonymize-structure], [deny-filter-monotone],
    [remove-router-monotone], [worklist-equals-rounds],
    [netlint-sim-agree].  The last cross-checks {!Rd_core.Netlint}'s
    route-leak dataflow against both engines: every reported leak must
    sit inside the static interior exposure of its external AS, and
    every converged simulated route of internal origin that an
    unfiltered external session would announce must too.  It shares
    one route-propagation simulation with [sim-subset-static]. *)

val run_analysis :
  ?cancel:Rd_util.Cancel.t ->
  ?faults:Rd_util.Fault.t ->
  ?invariants:string list ->
  ?files:(string * string) list ->
  Rd_core.Analysis.t ->
  report
(** Cross-check an already-analyzed network.  [invariants] restricts the
    catalogue (default: all).  [files] supplies the raw configuration
    texts; without them the [anonymize-structure] invariant (which must
    re-anonymize and re-parse the text) is skipped with a reason, as it
    is when the texts name more public ASes than the anonymizer has
    slots (the budget trip's message is the reason).  Both fixpoints and
    the simulation rounds run under {!Rd_util.Limits.default}.  [cancel]
    is polled on entry (site ["crosscheck.network"]), between
    invariants (site ["crosscheck.invariant"]) and inside every
    fixpoint and simulation driven by the oracle, so a per-network
    deadline stops the whole oracle within one generation; a
    cancellation mid-simulation degrades that invariant to a skip
    before the next poll raises.  [faults] arms the
    ["crosscheck.network"] site (key = network name) on entry — the
    chaos handle for delaying or killing one network's oracle. *)

val run :
  ?cancel:Rd_util.Cancel.t ->
  ?faults:Rd_util.Fault.t ->
  ?invariants:string list ->
  name:string ->
  (string * string) list ->
  report
(** Analyze [(file, text)] configurations and {!run_analysis} them. *)

val violates : invariant:string -> name:string -> (string * string) list -> bool
(** Does this configuration set still violate [invariant]?  Exceptions
    during analysis count as "no" (a crashing subset is not a
    reproduction) — this is the {!Shrink.predicate} the counterexample
    shrinker drives. *)

val has_errors : report list -> bool
(** Any error-severity violation in any report. *)

val render : report list -> string
(** Per-network summary table followed by one line per violation and
    per skipped invariant. *)

val report_to_json : report -> Rd_util.Json.t
(** One network's report as JSON — the payload format of a crosscheck
    checkpoint entry. *)

val report_of_json : Rd_util.Json.t -> report option
(** Inverse of {!report_to_json}; [None] on any shape mismatch, so a
    stale or foreign checkpoint entry reads as a miss, never a crash. *)

val to_json : report list -> Rd_util.Json.t
(** Machine-readable form: [{networks: [...], errors: n, warnings: n}],
    each network carrying its violations and skips — what
    [rdna crosscheck --json] emits and CI archives. *)
