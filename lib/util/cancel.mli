(** Cooperative cancellation tokens with deadlines.

    A token is a shared flag that long-running code polls at its natural
    yield points (fixpoint generations, simulation rounds, per-file
    parse loops, per-network oracles).  Nothing is ever interrupted
    pre-emptively: a cancelled computation stops at its next poll, so
    data structures are never observed mid-update.

    Tokens form a tree: {!child} derives a token whose cancellation
    state includes its parent's, and whose deadline is the tighter of
    its own budget and everything above it.  The intended shape is one
    root per process (tripped by [--deadline] or a SIGINT handler) and
    one child per supervised task ([--task-timeout]), so a slow task
    times out alone while a process-level stop reaches every task.

    Every poll entry point takes a [t option] and treats [None] as
    "never cancelled", mirroring the [?faults]/[?metrics] threading
    idiom — call sites stay unconditional. *)

type t
(** A cancellation token.  Thread/domain-safe: any domain may cancel,
    any domain may poll. *)

type reason =
  | Deadline of float  (** the budget (in seconds) that expired. *)
  | Stopped of string  (** explicit {!cancel}, e.g. ["SIGINT"]. *)

exception Cancelled of { site : string; reason : reason }
(** Raised by {!check} at poll point [site].  Registered with
    [Printexc] so it renders as e.g.
    [cancelled at study.network: deadline 2.5s exceeded]. *)

val create : ?deadline:float -> unit -> t
(** Fresh root token.  [deadline] is a budget in seconds from now;
    once it elapses every poll reports {!Deadline}. *)

val child : ?deadline:float -> t -> t
(** Token cancelled whenever [t] is, with its own (typically tighter)
    budget of [deadline] seconds from now.  The parent's deadline still
    applies through the chain, so the effective deadline is the tighter
    of the two. *)

val task : ?timeout:float -> t option -> t option
(** The token for one supervised task: a {!child} of the run token with
    a [timeout]-second budget clocked from this call, so a slow task
    times out alone while a run-level deadline or SIGINT still reaches
    it through the chain.  Without a run token, a fresh root carrying
    just the timeout; with neither, [None]. *)

val cancel : ?reason:string -> t -> unit
(** Trip [t] (default reason ["cancelled"]).  Idempotent: the first
    cancellation (or deadline expiry) wins and its reason sticks.
    Async-signal-safe: a single atomic store, no locking — callable
    from a [Sys.Signal_handle]. *)

val status : t -> reason option
(** [Some r] once [t] (or an ancestor) is cancelled or past its
    deadline; [None] while the computation may proceed. *)

val cancelled : t option -> bool
(** Non-raising poll: [true] once cancelled.  [None] is never
    cancelled.  Hot loops that must degrade rather than raise (the
    simulator's round loop) use this to exit with [converged = false]. *)

val check : site:string -> t option -> unit
(** Raising poll: no-op while live, raises {!Cancelled} with [site]
    once cancelled.  [site] names the poll point
    (["reach.fixpoint"], ["parse.file"], ...) exactly like
    {!Fault.fault_point} and {!Limits.check} sites, and is what the
    failed-networks table reports. *)

val remaining : t -> float option
(** Seconds until the tightest deadline on the chain ([None] if no
    deadline anywhere).  May be negative once expired. *)

val reason_to_string : reason -> string
(** ["deadline 2.5s exceeded"] / ["stopped: SIGINT"]. *)

val site_of_exn : exn -> string option
(** The poll site of a {!Cancelled} exception, [None] otherwise —
    composes with [Fault.site_of_exn] and [Limits.site_of_exn] in the
    pool's failure classifier. *)

val reason_of_exn : exn -> reason option
(** The reason of a {!Cancelled} exception, [None] otherwise. *)
