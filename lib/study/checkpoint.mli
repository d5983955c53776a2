(** Durable per-network checkpointing for long study sweeps.

    A checkpoint is a {!Rd_util.Store} directory holding one entry per
    completed network, keyed by a content-derived digest of the
    network's spec plus the driving stage ([study.network],
    [crosscheck.network] or [whatif.network]) and any salt that changes
    the result (fault spec, invariant selection).  Payloads are JSON —
    a {!Netstat.t} for the study, a {!Rd_check.Crosscheck} report for
    the cross-check, the network's scenario summaries
    ([Experiments.whatif_json]) for the what-if sweep.

    The discipline (DESIGN.md §15): entries are written as each network
    finishes, so a SIGINT or deadline loses only in-flight work;
    [--resume] probes before building and replays hits verbatim,
    producing byte-identical reports.  Resume keys derive from the spec
    and the flags, not from wall-clock or process state — resuming with
    different flags (seed, fault spec, invariants) simply misses. *)

type t

val open_dir : ?metrics:Rd_util.Metrics.t -> string -> t
(** Open (creating if needed) the checkpoint directory. *)

val key : stage:string -> ?salt:string list -> Population.spec -> Rd_util.Store.key
(** Content-derived resume key: digest of the stage (version 1), the
    spec's identifying fields (net id, label, archetype, size, BGP and
    filter toggles, seed) and the [salt] strings, in order. *)

val find : t -> Rd_util.Store.key -> Rd_util.Json.t option
(** Verified, parsed payload of an entry; any store-level corruption or
    JSON mismatch is a miss. *)

val save : t -> Rd_util.Store.key -> Rd_util.Json.t -> unit
(** Durably persist a payload (atomic write; failures are swallowed
    after counting — see {!Rd_util.Store.add}). *)

val store : t -> Rd_util.Store.t
(** The underlying store (for stats and entry paths in tests). *)

val render_stats : t -> string
(** One-line hit/miss/corrupt/write summary ({!Rd_util.Store.render_stats}). *)
