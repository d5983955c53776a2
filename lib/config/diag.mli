(** Structured diagnostics for configuration analysis.

    Every stage that reads messy configuration text — the lexer/parser,
    the policy evaluators, the lint pass — reports problems as coded,
    located diagnostics instead of raising or silently dropping input.
    A diagnostic carries a severity, a stable kebab-case code (suitable
    for filtering and for tests), the file and 1-based line it points
    at, and a human-readable message.

    Producers thread a mutable {!collector} through their work and the
    caller harvests an ordered list at the end; consumers render the
    list as a table ({!render}) or JSON ({!to_json}). *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;  (** stable kebab-case id, e.g. ["parse-bad-address"]. *)
  file : string option;  (** configuration file the diagnostic points at. *)
  line : int option;  (** 1-based physical line number. *)
  message : string;
}

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val make : ?file:string -> ?line:int -> severity -> code:string -> ('a, unit, string, t) format4 -> 'a
(** Format one diagnostic directly (no collector involved). *)

(** {1 Collectors} *)

type collector
(** Mutable accumulator; diagnostics come back in insertion order. *)

val create : ?file:string -> unit -> collector
(** [create ~file ()] — [file] is stamped onto every diagnostic added
    through this collector. *)

val report :
  collector -> ?line:int -> severity -> code:string -> ('a, unit, string, unit) format4 -> 'a
(** [report c sev ~code fmt ...] formats and adds a diagnostic. *)

val to_list : collector -> t list
(** Harvest, in insertion order. *)

(** {1 Consuming} *)

val counts : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val has_errors : t list -> bool
(** Whether any diagnostic has severity {!Error}. *)

val to_string : t -> string
(** One line: ["file:line severity code message"]. *)

val render : t list -> string
(** Aligned table (file, line, severity, code, message) via
    {!Rd_util.Table}; ["no diagnostics\n"] when empty. *)

val to_json : t list -> Rd_util.Json.t
(** JSON array of objects with fields [severity], [code], [file],
    [line], [message]. *)
