(* The original two-pass lexer, retained verbatim as the executable
   reference semantics for the one-pass scan in [Rd_config.Lexer].  It
   splits the text into lines, copies each line to right-trim it, maps
   tabs to spaces, splits and filters the words, and then splits the
   whole text a second time in [stats] to count lines.  Used by the
   qcheck agreement property in [test_config] and the full-study check
   in [test_study]. *)

type line = Rd_config.Lexer.line = { indent : int; words : string list; raw : string; lineno : int }

let split_lines s =
  (* String.split_on_char keeps a trailing empty string for texts ending in
     a newline; that is harmless because blank lines are filtered later. *)
  String.split_on_char '\n' s

let rtrim s =
  let n = String.length s in
  let rec last i = if i > 0 && (s.[i - 1] = ' ' || s.[i - 1] = '\t' || s.[i - 1] = '\r') then last (i - 1) else i in
  String.sub s 0 (last n)

let indent_of s =
  (* A tab indents like a space: real configs mix both, and treating a
     tab-led sub-command as top-level silently detaches it from its
     block. *)
  let rec go i = if i < String.length s && (s.[i] = ' ' || s.[i] = '\t') then go (i + 1) else i in
  go 0

let words_of s =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s))

let is_comment s =
  let i = indent_of s in
  i < String.length s && s.[i] = '!'

let lines_of_string text =
  let raw_lines = split_lines text in
  let rec build lineno acc = function
    | [] -> List.rev acc
    | l :: rest ->
      let l = rtrim l in
      let acc =
        if l = "" || is_comment l then acc
        else begin
          let indent = indent_of l in
          { indent; words = words_of l; raw = l; lineno } :: acc
        end
      in
      build (lineno + 1) acc rest
  in
  build 1 [] raw_lines

let stats text =
  let raw_lines = split_lines text in
  (* Do not count the phantom segment produced by a trailing newline. *)
  let physical =
    match List.rev raw_lines with
    | "" :: rest -> List.length rest
    | all -> List.length all
  in
  let commands =
    List.length (List.filter (fun l -> let l = rtrim l in l <> "" && not (is_comment l)) raw_lines)
  in
  (physical, commands)
