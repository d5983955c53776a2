type line = { indent : int; words : string list; raw : string; lineno : int }

(* A tab separates words and indents like a space: real configs mix
   both, and treating a tab-led sub-command as top-level silently
   detaches it from its block. *)
let is_space c = c = ' ' || c = '\t'

let is_trailing c = is_space c || c = '\r'

(* Index scans over [s]; none of them allocates. *)
let rec line_end s i = if i < String.length s && s.[i] <> '\n' then line_end s (i + 1) else i

let rec trim_end s first i = if i > first && is_trailing s.[i - 1] then trim_end s first (i - 1) else i

let rec skip_spaces s i stop = if i < stop && is_space s.[i] then skip_spaces s (i + 1) stop else i

let rec back_over_spaces s first i = if i > first && is_space s.[i - 1] then back_over_spaces s first (i - 1) else i

let rec word_start s first i = if i > first && not (is_space s.[i - 1]) then word_start s first (i - 1) else i

(* The words of [s.[first..stop)], scanned right to left so that each word
   is consed in front of its successors and the list needs no reversal. *)
let rec words_in s first stop acc =
  let stop = back_over_spaces s first stop in
  if stop = first then acc
  else
    let start = word_start s first stop in
    words_in s first start (String.sub s start (stop - start) :: acc)

let words s = words_in s 0 (String.length s) []

let lines_of_string text =
  let n = String.length text in
  (* [start] is the first byte of physical line [lineno]. *)
  let rec scan start lineno commands acc =
    let eol = line_end text start in
    let stop = trim_end text start eol in
    let first = skip_spaces text start stop in
    (* blank and '!' lines are skipped without a copy *)
    let command = first < stop && text.[first] <> '!' in
    let acc =
      if command then
        {
          indent = first - start;
          words = words_in text first stop [];
          raw = String.sub text start (stop - start);
          lineno;
        }
        :: acc
      else acc
    in
    let commands = if command then commands + 1 else commands in
    if eol < n then scan (eol + 1) (lineno + 1) commands acc
    else
      (* The segment after the last newline is a physical line only if it
         is not empty: a final newline ends a line, it does not start one. *)
      (List.rev acc, ((if start = n then lineno - 1 else lineno), commands))
  in
  scan 0 1 0 []
