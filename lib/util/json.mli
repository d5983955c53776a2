(** Minimal hand-rolled JSON emission and parsing (no dependencies).

    Used for machine-readable benchmark, trace ({!Trace.to_json}) and
    metrics ({!Metrics.to_json}) output, and to validate that output in
    tests.  Strings are escaped per RFC 8259; non-finite floats are
    emitted as [null] since JSON cannot represent them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val to_file : string -> t -> unit
(** Writes (truncating) to [path], value followed by a newline. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (RFC 8259).  Numbers without a fraction or
    exponent that fit in [int] become [Int], all others [Float]; [\uXXXX]
    escapes (including surrogate pairs) decode to UTF-8.  [Error msg]
    carries the byte offset of the first problem. *)

val member : string -> t -> t option
(** [member key (Obj fields)] looks up a field; [None] on non-objects
    and missing keys. *)

(** {1 Total decoding}

    Accessors for decoders that must never raise, such as checkpoint
    payload readers: any shape surprise is [None]. *)

val field : string -> (t -> 'a option) -> t -> 'a option
(** [field key f j] decodes [j]'s [key] member with [f]; [None] when
    [j] has no such member or [f] rejects it. *)

val str : t -> string option
val int : t -> int option
val bool : t -> bool option

val list : (t -> 'a option) -> t -> 'a list option
(** [list f (List l)] is [Some] of every element's decoding, in order,
    or [None] if any element fails; [None] on a non-list. *)
