(** "What if" analysis (paper §8.1, network engineering).

    Operators evaluate the robustness of the routing design to equipment
    failures and planned maintenance by modelling the effect of changes on
    the derived design.  A change is applied to the parsed configurations
    and the full analysis re-runs; the diff summarizes what moved. *)

type change =
  | Remove_router of string  (** take a router out of service. *)
  | Remove_link of Rd_addr.Prefix.t
      (** shut both ends of the link with this subnet. *)
  | Shutdown_interface of string * string  (** (router, interface name). *)

type diff = {
  before : Analysis.t;
  after : Analysis.t;
  instances_before : int;
  instances_after : int;
  split_instances : (Rd_routing.Instance.t * int) list;
      (** multi-router instances of the old design together with how many
          instances their surviving processes land in afterwards (>1 means
          the change partitioned the instance). *)
  lost_reachability : (Rd_addr.Ipv4.t * Rd_addr.Ipv4.t) list;
      (** sampled host pairs reachable before but not after. *)
  warnings : string list;
      (** changes whose router/interface/subnet target matched nothing —
          a typoed maintenance scenario must not report "no impact". *)
}

type delta = {
  analysis : Analysis.t;  (** the re-analyzed network. *)
  touched : string list;
      (** configuration file names a change actually modified or removed,
          sorted and deduplicated (reports list them per scenario). *)
  warnings : string list;
      (** one warning per change target that matched nothing. *)
}

val apply : Analysis.t -> change list -> delta
(** Re-analyze the network with the changes applied, reporting which
    configuration files were touched and one warning per change target
    that matched no router, interface, or link subnet (such a change is
    skipped). *)

(** {2 Scenarios}

    A {e scenario} is a named batch of changes — one line of a what-if
    sweep file as consumed by [rdna whatif --batch].  The line grammar is

    {v [LABEL:] CHANGE [; CHANGE]... v}

    where each change is [remove-router NAME], [remove-link A.B.C.D/LEN],
    or [shutdown-interface ROUTER IFACE]; blank lines and [#] comments
    are skipped. *)

type scenario = { label : string; changes : change list }

val change_to_string : change -> string
(** Render a change back into its scenario-grammar form (the inverse of
    {!parse_change}). *)

val scenario_to_string : scenario -> string
(** The scenario's changes in grammar form, [;]-separated (the label is
    not included). *)

val parse_change : string -> (change, string) result
(** Parse one whitespace-tokenized change. *)

val parse_scenario : ?default_label:string -> string -> (scenario, string) result
(** Parse one scenario line.  A first token ending in [:] is the label;
    otherwise [default_label] (or, failing that, the rendered changes)
    names the scenario.  A line with no changes is an error. *)

val parse_scenarios : string -> (scenario list, string) result
(** Parse a whole sweep file.  Unlabelled scenarios are named [s1],
    [s2], ... in file order; errors are prefixed with their 1-based line
    number. *)

val sample_hosts : Rd_reach.Reachability.t -> Rd_addr.Ipv4.t list
(** The hosts {!compare} scores: one representative address per origin
    prefix, in instance order, capped at 24. *)

val lost_pairs :
  Rd_addr.Ipv4.t list -> Rd_reach.Reachability.t -> Rd_reach.Reachability.t ->
  (Rd_addr.Ipv4.t * Rd_addr.Ipv4.t) list
(** [lost_pairs hosts r1 r2]: the pairs of distinct [hosts] that can
    reach each other in [r1] but not in [r2], in host order (source
    major, destination minor). *)

val compare :
  ?warnings:string list ->
  ?reach_before:Rd_reach.Reachability.t ->
  ?reach_after:Rd_reach.Reachability.t ->
  before:Analysis.t -> after:Analysis.t -> unit -> diff
(** Structural and reachability diff (reachability is sampled over the
    instances' origin sets).  [warnings] (a {!delta}'s) is carried
    onto the diff.

    Both sides are scored with an {e empty} external offer — interfaces
    whose peer was removed look external-facing afterwards, and the
    default full offer would mask every loss behind the unknown outside
    world.  [reach_before]/[reach_after] let a caller supply
    already-computed solutions (the engine passes its cached ones); they
    must have been computed with empty external offers over the
    corresponding graphs, or the loss sampling is meaningless.
    [lost_reachability] is {!lost_pairs} over {!sample_hosts} of the
    baseline. *)

val run : Analysis.t -> change list -> diff
(** {!apply} + {!compare}. *)

val render : diff -> string
