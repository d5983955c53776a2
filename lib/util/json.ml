(* Minimal JSON emission and parsing (no dependencies).

   Just enough to write benchmark, trace and metrics records that
   standard tooling can consume — correct string escaping, finite-float
   handling (NaN/infinity become null — JSON has no spelling for them) —
   and to read them back for validation in tests and CI. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null" else Printf.sprintf "%.12g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ", ";
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        escape buf k;
        Buffer.add_string buf ": ";
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let to_channel oc v =
  output_string oc (to_string v);
  output_char oc '\n'

let to_file path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc v)

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> fail "bad \\u escape"
  in
  (* Encode a Unicode scalar value as UTF-8 (surrogate pairs are combined
     by the caller). *)
  let add_utf8 buf c =
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (c lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
    end
    else if c < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (c lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (c lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "truncated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           let c1 = hex4 () in
           if c1 >= 0xd800 && c1 <= 0xdbff then begin
             if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
               pos := !pos + 2;
               let c2 = hex4 () in
               if c2 >= 0xdc00 && c2 <= 0xdfff then
                 add_utf8 buf (0x10000 + ((c1 - 0xd800) lsl 10) + (c2 - 0xdc00))
               else fail "unpaired surrogate"
             end
             else fail "unpaired surrogate"
           end
           else if c1 >= 0xdc00 && c1 <= 0xdfff then fail "unpaired surrogate"
           else add_utf8 buf c1
         | _ -> fail "bad escape");
        go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit in
    if is_float then
      match float_of_string_opt lit with Some f -> Float f | None -> fail "bad number"
    else begin
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        (* out of int range: fall back to float *)
        match float_of_string_opt lit with Some f -> Float f | None -> fail "bad number")
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value ())
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev (kv :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) -> Error (Printf.sprintf "at offset %d: %s" p msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let field key f j = Option.bind (member key j) f
let str = function String s -> Some s | _ -> None
let int = function Int i -> Some i | _ -> None
let bool = function Bool b -> Some b | _ -> None

let list f = function
  | List l ->
    List.fold_right
      (fun x acc -> match (f x, acc) with Some x, Some acc -> Some (x :: acc) | _ -> None)
      l (Some [])
  | _ -> None
