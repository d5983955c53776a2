(** Line-level tokenization of IOS-style configuration text.

    IOS configurations are line-oriented: top-level commands start in
    column 0, mode sub-commands are indented by one space, ['!'] lines are
    separators/comments.  The lexer yields logical lines with their
    indentation so the parser can track mode structure.

    One scan over the bytes does it all: each ['\n'] is found by index,
    trailing spaces, tabs and ['\r'] are trimmed by index, blank and
    ['!'] lines are skipped without a copy, and each word is sliced
    straight out of the text, so a line costs one copy of its trimmed
    text plus one per word.  The same pass counts physical and command
    lines. *)

type line = {
  indent : int;  (** number of leading whitespace characters (spaces or tabs). *)
  words : string list;  (** whitespace-separated tokens, non-empty. *)
  raw : string;  (** the original line, trailing whitespace trimmed. *)
  lineno : int;  (** 1-based physical line number. *)
}

val lines_of_string : string -> line list * (int * int)
(** [lines_of_string text] is [(lines, (physical, commands))]: the logical
    (non-blank, non-comment) lines in order, the number of physical lines
    (a final newline does not start one more), and the number of command
    lines, which excludes blank and comment lines; the counts are the
    paper's Figure 4 measure. *)

val words : string -> string list
(** The non-empty words of a string, separated by runs of spaces and
    tabs; a ['\r'] is part of a word.  A line's [words] are this list
    for its text. *)
