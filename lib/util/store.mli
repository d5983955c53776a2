(** Durable on-disk content-addressed store.

    One directory, one file per entry, named by the hex of the entry's
    {!Cache.key}.  This is the persistence backend behind
    [--checkpoint DIR]/[--resume]: completed per-network results are
    written as they finish and found again by a later process.

    Durability discipline (DESIGN.md §15):
    - writes go to a temp file in the same directory, are flushed and
      fsynced, then renamed into place — a reader never observes a
      half-written entry, and a crash mid-write leaves only a temp file
      that is ignored;
    - every entry is framed (magic, payload length, payload SHA-1) and
      verified on read — a corrupt or truncated entry is a logged miss
      (the [store.corrupt] counter) and is never trusted, never fatal.

    A store never raises on read: any I/O or integrity problem
    degrades to [None].  [add] failures (disk full, permissions) are
    likewise swallowed after counting — a checkpoint that cannot be
    written must not take down the analysis it was meant to protect. *)

type t

type key = string
(** A raw key, typically a 20-byte SHA-1 digest ({!Cache.key} keys are
    exactly this).  Entry file names are the hex of the key. *)

val open_dir : ?metrics:Metrics.t -> string -> t
(** Open (creating if needed) the store rooted at a directory.
    Raises [Sys_error] only when the directory cannot be created at
    all — after that, per-entry problems never escape. *)

val find : t -> key -> string option
(** Verified payload of an entry, [None] on absent/corrupt/truncated. *)

val add : t -> key -> string -> unit
(** Durably persist a payload under a key (write-temp-fsync-rename).
    Overwrites any previous entry atomically. *)

val entry_path : t -> key -> string
(** Where an entry lives on disk — exposed so tests and smoke scripts
    can corrupt entries deliberately. *)

type stats = { hits : int; misses : int; writes : int; corrupt : int }

val stats : t -> stats
(** Counters since {!open_dir}; [corrupt] entries are also counted as
    misses.  Mirrored to metrics as [store.hits] / [store.misses] /
    [store.writes] / [store.corrupt]. *)

val render_stats : t -> string
(** One-line human rendering, e.g.
    ["checkpoint store: 14 hits, 17 misses (1 corrupt), 17 writes"]. *)
