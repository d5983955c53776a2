type node_attrs = { label : string option; shape : string option }

type t = {
  name : string;
  nodes : (string, node_attrs) Hashtbl.t;
  mutable node_order : string list; (* reverse insertion order *)
  mutable edges : (string * string * string option * string option) list;
  mutable clusters : (string * string * string list) list;
}

let create name =
  { name; nodes = Hashtbl.create 16; node_order = []; edges = []; clusters = [] }

let node t ?label ?shape id =
  if not (Hashtbl.mem t.nodes id) then t.node_order <- id :: t.node_order;
  Hashtbl.replace t.nodes id { label; shape }

let edge t ?label ?style src dst = t.edges <- (src, dst, label, style) :: t.edges

let subgraph t ~label id nodes = t.clusters <- (id, label, nodes) :: t.clusters

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c -> if c = '"' then Buffer.add_string buf "\\\"" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let attrs_to_string pairs =
  match List.filter_map (fun (k, v) -> Option.map (fun v -> k ^ "=" ^ quote v) v) pairs with
  | [] -> ""
  | l -> " [" ^ String.concat ", " l ^ "]"

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" (quote t.name));
  List.iter
    (fun id ->
      let a = Hashtbl.find t.nodes id in
      Buffer.add_string buf
        (Printf.sprintf "  %s%s;\n" (quote id)
           (attrs_to_string [ ("label", a.label); ("shape", a.shape) ])))
    (List.rev t.node_order);
  List.iter
    (fun (id, label, members) ->
      Buffer.add_string buf (Printf.sprintf "  subgraph %s {\n" (quote ("cluster_" ^ id)));
      Buffer.add_string buf (Printf.sprintf "    label=%s;\n" (quote label));
      List.iter (fun m -> Buffer.add_string buf (Printf.sprintf "    %s;\n" (quote m))) members;
      Buffer.add_string buf "  }\n")
    (List.rev t.clusters);
  List.iter
    (fun (src, dst, label, style) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s%s;\n" (quote src) (quote dst)
           (attrs_to_string [ ("label", label); ("style", style) ])))
    (List.rev t.edges);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
