(** Fixed-size OCaml 5 domain worker pool behind one supervised map.

    {!parallel_map_results} spawns [jobs] worker domains that pop
    closures off a mutex/condition task queue, submits one task per
    input item, and writes each item's result into a shared array, so
    output order always matches input order and a parallel map is
    observably identical to its sequential counterpart — only
    wall-clock changes.  This is what lets the parallel 31-network
    study (paper §2) promise byte-identical output.

    There is one dispatcher and one error discipline: supervision.
    Every input produces an [(result, failure) result], optionally after
    a bounded number of retries, so a single bad network cannot abort the
    other thirty.  Fail-fast is supervision plus a re-raise:
    {!parallel_map} runs every item, then re-raises the lowest-index
    failure with its original backtrace ({!reraise}), so which exception
    escapes never depends on the schedule.

    The pool cannot deadlock on a failure: each item attempt catches its
    own exception, so every item completes exactly once, and a worker
    that catches an exception escaping a task (counted as
    [pool.task_failures]) keeps serving the queue.

    Worker domains are flagged via domain-local storage: a parallel map
    issued from inside a pool task runs sequentially rather than
    deadlocking on pool capacity, so nested parallelism degrades
    gracefully.

    Pools cooperate with the observability layer: pass
    {!parallel_map_results} [?trace] and/or [?metrics] to have every
    submitted task wrapped in a ["task"] span (category ["pool"]) and
    counted into [pool.tasks], [pool.queue_wait_ms], [pool.task_ms],
    [pool.workers], and [pool.utilization]; retries bump
    [task.retried].  Pass [?faults] to
    arm the ["pool.pickup"] {!Fault} site, which fires per item between
    task pickup and execution on the pool path — the chaos suite's
    stand-in for a worker dying mid-task — failing just that item.
    Workers flush their domain-local {!Trace} buffers before exiting, so
    spans recorded inside tasks always survive the pool join. *)

val default_jobs : unit -> int
(** The [RDNA_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val in_worker : unit -> bool
(** [true] when called from inside a pool worker domain. *)

type cause =
  | Exn  (** an ordinary exception. *)
  | Fault of string  (** an injected {!Fault} fired at this site. *)
  | Budget of string  (** a {!Limits} budget tripped at this site. *)
  | Timed_out of Cancel.reason
      (** a {!Cancel} token tripped — deadline expiry or explicit stop.
          Timed-out items are never retried: the deadline stays expired,
          so a retry could only burn budget re-reaching the poll. *)

(** Classification of the terminal exception of a failed item. *)

type failure = {
  exn : exn;  (** the terminal exception, after any retries. *)
  backtrace : Printexc.raw_backtrace;
      (** where it was raised (empty when recording is off). *)
  site : string option;
      (** the {!Fault}/{!Limits}/{!Cancel} site that produced it, when
          known. *)
  cause : cause;  (** what kind of failure this was. *)
  attempts : int;  (** how many times the item was tried. *)
  elapsed : float;  (** seconds spent on the item across all attempts. *)
}
(** Why one input item failed. *)

val reraise : failure -> 'a
(** Raise the failure's exception again with its original backtrace. *)

val parallel_map_results :
  ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t ->
  ?cancel:Cancel.t -> ?retries:int -> ('a -> 'b) -> 'a list ->
  ('b, failure) result list
(** Order-preserving supervised map on a fresh pool of [jobs] workers
    (default {!default_jobs}), shut down before returning: every input
    yields [Ok] or a {!failure}; an exception in one item never affects
    the others.  [~jobs:1], a singleton or empty list, or a call from
    inside a worker runs sequentially without spawning any domain.

    [retries] (default 0) re-runs a failed item up to that many extra
    times, at once, counting [task.retried]; on a pool the retry is
    requeued behind the items already waiting.  [cancel] is polled (site
    ["pool.queued"]) before each item attempt, so once the token trips
    every not-yet-started item fails fast with a {!Timed_out} failure
    instead of running — the pool drains at poll speed. *)

val parallel_map : ?jobs:int -> ?faults:Fault.t -> ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map_results} without retries, then {!reraise} the
    lowest-index failure if any item failed. *)
