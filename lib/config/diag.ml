type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;
  file : string option;
  line : int option;
  message : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let make ?file ?line severity ~code fmt =
  Printf.ksprintf (fun message -> { severity; code; file; line; message }) fmt

type collector = { default_file : string option; mutable rev : t list }

let create ?file () = { default_file = file; rev = [] }

let add c ?line severity ~code message =
  c.rev <- { severity; code; file = c.default_file; line; message } :: c.rev

let report c ?line severity ~code fmt = Printf.ksprintf (add c ?line severity ~code) fmt

let to_list c = List.rev c.rev

let counts ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let location d =
  Printf.sprintf "%s:%s"
    (Option.value d.file ~default:"-")
    (match d.line with Some l -> string_of_int l | None -> "-")

let to_string d =
  Printf.sprintf "%s %s %s %s" (location d) (severity_to_string d.severity) d.code d.message

let render ds =
  if ds = [] then "no diagnostics\n"
  else
    Rd_util.Table.render
      ~headers:[ "file"; "line"; "severity"; "code"; "message" ]
      ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right ]
      (List.map
         (fun d ->
           [
             Option.value d.file ~default:"-";
             (match d.line with Some l -> string_of_int l | None -> "-");
             severity_to_string d.severity;
             d.code;
             d.message;
           ])
         ds)

let to_json ds =
  let opt f = function None -> Rd_util.Json.Null | Some v -> f v in
  Rd_util.Json.List
    (List.map
       (fun d ->
         Rd_util.Json.Obj
           [
             ("severity", Rd_util.Json.String (severity_to_string d.severity));
             ("code", Rd_util.Json.String d.code);
             ("file", opt (fun f -> Rd_util.Json.String f) d.file);
             ("line", opt (fun l -> Rd_util.Json.Int l) d.line);
             ("message", Rd_util.Json.String d.message);
           ])
       ds)
