(** Deterministic, seeded fault injection for chaos testing.

    The pipeline only earns its robustness claims if faults can be
    driven through it on demand: the chaos suite injects raises, byte
    corruption, and delays at named {e sites} inside the parser, the
    analysis stages, the worker pool, and the fixpoint loops, then
    asserts that the run completes, that untouched networks are
    byte-identical to a clean run, and that every injected fault is
    reported exactly once.

    Instrumented code marks each site with {!fault_point} (and byte
    pipelines with {!corrupt}).  Both take a [t option] and compile to
    no-ops on [None] — the same convention as {!Trace} and {!Metrics} —
    so clean runs stay byte-identical to an uninstrumented build.

    {2 Determinism}

    A plan is built from a textual spec (see {!of_spec}) whose [seed]
    fixes every decision.  A clause fires based only on the seed, the
    clause, the site, the call's [key], and how many times that
    (site, key) pair has been seen — never on wall-clock time or domain
    scheduling — so a given spec injects the same faults into the same
    work items on every run, even under a parallel pool, provided each
    logical work item passes a distinguishing [key] (the study uses
    network labels and ["<network>/<file>"] names).

    {2 Spec grammar}

    Clauses are separated by [;]:
    {v
    spec   ::= part (';' part)*
    part   ::= 'seed=' INT | clause
    clause ::= SITE ':' KIND (':' option)*
    KIND   ::= 'raise' | 'corrupt' | 'delay=' MILLISECONDS
    option ::= 'p=' FLOAT | 'key=' STRING | 'max=' INT
    v}
    A clause matches a call when its [SITE] equals the call's site or is
    a dotted prefix of it ([analysis] matches [analysis.blocks]), and its
    [key=] (if any) equals the call's key.  [p] is the fire probability
    (default 1); [max] caps fires per (site, key).  Example:
    [seed=7;study.network:raise:key=net4;parse.bytes:corrupt:p=0.01]. *)

(** {2 Sites}

    Every site the program marks is declared here, and call sites use
    these names: {!of_spec} rejects a clause whose site is neither a
    declared site nor a dotted prefix of one. *)

val study_network : string
val crosscheck_network : string
val parse_file : string
val parse_bytes : string
val pool_pickup : string
val propagate_fixpoint : string

val analysis_site : string -> string
(** ["analysis.<stage>"], declared for the stages ["topology"],
    ["catalog"], ["instance-graph"], ["blocks"] and ["filter-stats"]. *)

val sites : string list
(** Every declared site; the [--inject-faults] help lists them. *)

(** {2 Plans} *)

type kind =
  | Raise  (** raise {!Injected} at the fault point. *)
  | Delay of float  (** sleep this many milliseconds at the fault point. *)
  | Corrupt  (** mangle the bytes passed to {!corrupt}. *)

exception Injected of string * string option
(** [Injected (site, key)], raised by a firing [raise] clause.  A
    printer is registered, so [Printexc.to_string] yields the stable
    one-liner ["injected fault at <site> [<key>]"]. *)

type t
(** A fault-injection plan: parsed clauses plus the mutable (mutex-
    protected, domain-safe) call counters and fire log. *)

val of_spec : string -> (t, string) result
(** Parse a spec (grammar above) into a plan.  [Error] carries a
    human-readable description of the first malformed clause; a clause
    naming an unknown site is malformed, and its message lists
    {!sites}. *)

val from_env : unit -> (t option, string) result
(** [of_spec] applied to the [RDNA_FAULTS] environment variable;
    [Ok None] when the variable is unset or empty. *)

val seed : t -> int
(** The plan's seed (0 when the spec did not set one). *)

val set_metrics : t -> Metrics.t option -> unit
(** Attach a registry: every subsequent fire bumps the [fault.injected]
    counter. *)

val fault_point : ?key:string -> t option -> site:string -> unit
(** Mark an injection site.  On [None] (faults disabled) this is a
    no-op.  Otherwise the first matching, firing clause acts: [raise]
    raises {!Injected}, [delay] sleeps; [corrupt] clauses never fire
    here (they only act through {!corrupt}). *)

val corrupt : ?key:string -> t option -> site:string -> string -> string
(** [corrupt t ~site text] returns [text] unchanged unless a [corrupt]
    clause fires for (site, key), in which case a deterministic
    selection of bytes (seeded from the plan, site, and key) is
    overwritten with printable garbage — the "malformed router" the
    paper's tolerant parser must survive. *)

type injection = { i_site : string; i_key : string option; i_kind : kind }
(** One fired fault, as recorded in the plan's log. *)

val injections : t -> injection list
(** Every fault fired so far, oldest first.  The chaos suite asserts
    each configured fault appears here exactly once. *)

val site_of_exn : exn -> string option
(** The site of an {!Injected} exception, [None] otherwise. *)
