(** Reference lexer: the original two-pass implementation of
    {!Rd_config.Lexer}, retained as executable reference semantics.

    Every line is copied to right-trim it and again to map tabs, its
    words are split and filtered, and the whole text is split a second
    time to count lines.  The qcheck agreement property checks the
    one-pass scan against this module on random texts, and the full
    study checks it on every generated configuration file.  Production
    code uses {!Rd_config.Lexer}. *)

type line = Rd_config.Lexer.line = {
  indent : int;  (** number of leading whitespace characters (spaces or tabs). *)
  words : string list;  (** whitespace-separated tokens, non-empty. *)
  raw : string;  (** the original line, trailing whitespace trimmed. *)
  lineno : int;  (** 1-based physical line number. *)
}

val lines_of_string : string -> line list
(** Logical (non-blank, non-comment) lines in order. *)

val stats : string -> int * int
(** [(total physical lines, command count)] — command count excludes blank
    and comment lines; this is the paper's Figure 4 measure. *)
