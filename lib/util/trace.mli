(** Span-based execution tracing for the analysis pipeline.

    The paper's methodology is a staged pipeline (parse → process graphs
    → instances → pathways → address blocks → reachability, §3–§6); this
    module makes a run of that pipeline inspectable.  A recorder collects
    {e spans} — named, nested intervals of wall-clock time with key/value
    attributes — and exports them as Chrome [trace_event] JSON
    (load the file in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}) or aggregates them into the per-stage table that
    [rdna study --timing] prints (the successor of the former
    [Rd_util.Timing] module).

    {2 Domain safety}

    Spans are buffered {e per domain} (domain-local storage), so
    recording a span never takes a lock; a pool worker's buffer is merged
    into the recorder when the worker exits (a pool joins its workers
    before its map returns, and they flush via
    {!flush_current_domain}), and the exporting domain's buffer is
    merged on {!spans}/{!to_json}.  Spans recorded on a worker domain
    therefore become visible only after its pool has shut down — which
    every [Pool] map guarantees before returning.

    Tracing is observational only: enabling it never changes analysis
    results (asserted by the [test_study] case "traced build identical
    + trace json").

    {2 Call-site convention}

    Every recording function takes a [t option] so instrumented code can
    thread an optional recorder without matching: [Trace.span trace
    "parse" f] runs [f] untraced when [trace = None]. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string  (** Attribute values attached to spans. *)

type span = {
  name : string;  (** stable span name, e.g. ["parse"] or ["analyze"]. *)
  cat : string;  (** category: ["stage"], ["network"], ["pool"], ... *)
  ts_us : float;  (** start time, microseconds since the recorder epoch. *)
  dur_us : float;  (** duration in microseconds. *)
  tid : int;  (** recording domain's id (Chrome "thread"). *)
  depth : int;  (** nesting depth within the recording domain at start. *)
  args : (string * value) list;  (** key/value attributes. *)
}
(** A completed span. *)

type t
(** A span recorder.  Create one per run; share it freely across
    domains. *)

val create : unit -> t
(** A fresh recorder whose epoch is the moment of creation. *)

val now : unit -> float
(** Current wall-clock time in seconds ([Unix.gettimeofday]). *)

type handle
(** An open span, to be closed with {!end_span} in the same domain. *)

val begin_span : ?cat:string -> ?args:(string * value) list -> t option -> string -> handle
(** Open a span.  [cat] defaults to ["stage"].  A [None] recorder yields
    a no-op handle. *)

val end_span : ?args:(string * value) list -> handle -> unit
(** Close the span, appending [args] to those given at {!begin_span}.
    Must run in the domain that opened it. *)

val span : ?cat:string -> ?args:(string * value) list -> t option -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span, closing it even when [f]
    raises.  [span None name f] is exactly [f ()]. *)

val span_with :
  ?cat:string ->
  ?args:(string * value) list ->
  t option -> string -> ('a -> (string * value) list) -> (unit -> 'a) -> 'a
(** [span_with t name post f] is {!span}, but on success attaches
    [post result] as additional attributes — for sizes and counts that
    are only known once the stage has run. *)

val flush_current_domain : unit -> unit
(** Merge the calling domain's buffered spans (for every recorder it has
    touched) into the shared recorders.  {!Pool} workers call this as
    they exit; call it yourself only from hand-rolled domains. *)

val spans : t -> span list
(** All merged spans in start-time order.  Flushes the calling domain's
    buffer first. *)

val stage_table : ?cat:string -> t -> (string * float * int) list
(** [(name, total seconds, span count)] aggregated over spans of
    category [cat] (default ["stage"]), in first-start order — the
    successor of [Timing.stages]. *)

val total : ?cat:string -> t -> float
(** Sum of stage totals over category [cat] (default ["stage"]). *)

val render_stages : ?cat:string -> t -> string
(** Human-readable per-stage table (stage, seconds, spans, and a total
    row) — the [rdna study --timing] output. *)

val to_json : t -> Json.t
(** Chrome [trace_event] JSON: [{"traceEvents": [...]}] with one
    complete-duration ("ph":"X") event per span, timestamps in
    microseconds. *)

val to_file : t -> string -> unit
(** Write {!to_json} to a file. *)

val reset : t -> unit
(** Drop all merged spans and the calling domain's buffer.  Only call
    between runs, after every pool has shut down. *)
