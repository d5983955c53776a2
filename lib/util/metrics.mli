(** Metrics registry: counters, gauges, and fixed-bucket histograms.

    Alongside {!Trace} spans, the pipeline exposes its internal activity
    — lines parsed, pool queue waits, flood-fill instance sizes,
    reachability fixpoint iterations (paper §3–§6) — as named metrics
    collected in a registry and snapshotted at the end of a run, either
    as human-readable tables ({!render}) or JSON ({!to_json}, the
    [rdna study --metrics-json] output).

    All updates are domain-safe (one registry mutex), so pool workers
    share the registry directly.  Like {!Trace}, every update function
    takes a [t option] and is a no-op on [None], so instrumented code
    threads an optional registry without matching.

    A name is bound to one metric kind on first use; using it as a
    different kind afterwards raises [Invalid_argument]. *)

type t
(** A mutable, domain-safe metrics registry. *)

val create : unit -> t

val incr : ?by:int -> t option -> string -> unit
(** Bump counter [name] by [by] (default 1).  Counters only grow. *)

val set : t option -> string -> float -> unit
(** Set gauge [name] to a value (last write wins). *)

val default_buckets : float array
(** The default histogram boundaries: a 1-2-5 ladder from 1 to 10{^4}.
    Suitable for millisecond latencies and small counts alike. *)

val observe : ?buckets:float array -> t option -> string -> float -> unit
(** Record one observation into histogram [name].  The first observation
    fixes the bucket boundaries ([buckets], default {!default_buckets},
    must be sorted ascending); later [?buckets] arguments are ignored.
    Each bucket counts observations [<=] its upper bound; observations
    above the last bound land in an overflow bucket. *)

type histogram = {
  buckets : (float * int) list;  (** (upper bound, count at or under it since the previous bound). *)
  overflow : int;  (** observations above the last bound. *)
  count : int;
  sum : float;
  min : float;  (** [nan] when [count = 0]. *)
  max : float;  (** [nan] when [count = 0]. *)
}
(** An immutable histogram snapshot. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram) list;
}
(** A point-in-time copy of the registry, each section sorted by name. *)

val snapshot : t -> snapshot

val counter_value : t -> string -> int option
(** Current value of a counter, if that name is a counter. *)

val find_histogram : t -> string -> histogram option

val render : t -> string
(** Human-readable tables: one for counters, one for gauges, one for
    histograms (count, sum, min, mean, max). *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]; each
    histogram carries its full bucket list as [{"le": bound, "n": count}]
    rows, with [le = null] for the overflow bucket. *)
