(** Tolerant parser for the IOS-dialect configuration language.

    The parser models the subset of the language that carries routing
    design (interfaces, routing processes, policies, filters, static
    routes) and preserves everything else verbatim in [Ast.unknown] — the
    paper's methodology requires never failing on an unrecognized command,
    because real configurations are full of them. *)

val parse : string -> Ast.t
(** Parse a whole configuration file.  Never raises on unknown commands;
    malformed arguments of known commands demote the line to [unknown]. *)

val parse_with_diags :
  ?file:string -> ?metrics:Rd_util.Metrics.t -> ?cancel:Rd_util.Cancel.t ->
  string -> Ast.t * Diag.t list
(** Like {!parse}, but also returns the diagnostics the parser produced:
    every line that lands in [Ast.unknown] comes back as a coded, located
    diagnostic.  Unmodelled commands report as [Warning]
    ([parse-unknown-command], [parse-unknown-subcommand],
    [parse-orphan-subcommand]); modeled commands whose arguments could
    not be parsed — real data loss — report as [Error]
    ([parse-bad-address], [parse-bad-acl-clause], [parse-bad-route], ...).
    [file] stamps the file name onto each diagnostic.  [metrics] bumps
    the [parse.files]/[parse.lines]/[parse.commands]/
    [parse.unknown_lines] counters plus one [diag.<code>] counter per
    diagnostic code, batched once per file so pool workers do not
    contend. *)
