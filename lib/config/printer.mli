(** Render an AST back to IOS-dialect configuration text.

    [Parser.parse (to_string c)] recovers [c] up to field order — this
    round trip is property-tested, and it is how the synthetic network
    generator produces the raw configuration files consumed by the
    analysis pipeline. *)

val to_string : Ast.t -> string
(** Whole configuration file, sections in canonical order. *)

