module J = Rd_util.Json

type t = {
  label : string;
  arch : string;
  net_id : int;
  routers : int;
  summary : string;
  roles : Rd_core.Roles.counts;
  uses_bgp : bool;
  census : (Rd_topo.Itype.t * int) list;
  filter_internal_pct : float option;
  design : Rd_core.Design_class.design;
  bgp_into_igp : bool;
  ibgp_completeness : float list;
}

let of_network (n : Population.network) =
  let a = n.analysis in
  let ev = Rd_core.Design_class.classify a in
  {
    label = n.spec.label;
    arch = Rd_gen.Archetype.to_string n.spec.arch;
    net_id = n.spec.net_id;
    routers = n.spec.n;
    summary = Rd_core.Analysis.summary a;
    roles = Rd_core.Roles.count a;
    uses_bgp = Rd_core.Roles.uses_bgp a;
    census = Rd_topo.Topology.interface_census a.topo;
    filter_internal_pct = Rd_policy.Filter_stats.internal_percentage a.filter_stats;
    design = ev.design;
    bgp_into_igp = ev.bgp_into_igp;
    ibgp_completeness =
      Array.to_list a.graph.assignment.instances
      |> List.filter_map (fun (i : Rd_routing.Instance.t) ->
           Rd_routing.Instance_graph.ibgp_mesh_completeness a.graph i.inst_id);
  }

let render_block t =
  Printf.sprintf "--- %s (%s, %d routers) ---\n%s" t.label t.arch t.routers t.summary

(* --- JSON codec --------------------------------------------------------- *)

(* [%h] hex float literals round-trip exactly; Json's own [Float] prints
   %.12g, which does not. *)
let float_json f = J.String (Printf.sprintf "%h" f)

let float_of_json = function
  | J.String s -> float_of_string_opt s
  | _ -> None

let pair_json (a, b) = J.List [ J.Int a; J.Int b ]

let roles_json (r : Rd_core.Roles.counts) =
  J.Obj
    [
      ("ospf", pair_json r.ospf);
      ("eigrp", pair_json r.eigrp);
      ("rip", pair_json r.rip);
      ("isis", pair_json r.isis);
      ("ebgp_sessions", pair_json r.ebgp_sessions);
    ]

let design_of_string = function
  | "backbone" -> Some Rd_core.Design_class.Backbone
  | "enterprise" -> Some Rd_core.Design_class.Enterprise
  | "unclassifiable" -> Some Rd_core.Design_class.Unclassifiable
  | _ -> None

let to_json t =
  J.Obj
    [
      ("label", J.String t.label);
      ("arch", J.String t.arch);
      ("net_id", J.Int t.net_id);
      ("routers", J.Int t.routers);
      ("summary", J.String t.summary);
      ("roles", roles_json t.roles);
      ("uses_bgp", J.Bool t.uses_bgp);
      ( "census",
        J.List
          (List.map
             (fun (ty, c) -> J.List [ J.String (Rd_topo.Itype.to_string ty); J.Int c ])
             t.census) );
      ( "filter_internal_pct",
        match t.filter_internal_pct with None -> J.Null | Some f -> float_json f );
      ("design", J.String (Rd_core.Design_class.design_to_string t.design));
      ("bgp_into_igp", J.Bool t.bgp_into_igp);
      ("ibgp_completeness", J.List (List.map float_json t.ibgp_completeness));
    ]

(* Total decoding: any shape surprise is [None], never an exception. *)
let ( let* ) = Option.bind

let pair_of_json = function J.List [ J.Int a; J.Int b ] -> Some (a, b) | _ -> None

let roles_of_json j =
  let field k = J.field k pair_of_json j in
  let* ospf = field "ospf" in
  let* eigrp = field "eigrp" in
  let* rip = field "rip" in
  let* isis = field "isis" in
  let* ebgp_sessions = field "ebgp_sessions" in
  Some { Rd_core.Roles.ospf; eigrp; rip; isis; ebgp_sessions }

let census_item = function
  | J.List [ J.String ty; J.Int c ] -> Some (Rd_topo.Itype.of_string ty, c)
  | _ -> None

let of_json j =
  let field k f = J.field k f j in
  let* label = field "label" J.str in
  let* arch = field "arch" J.str in
  let* net_id = field "net_id" J.int in
  let* routers = field "routers" J.int in
  let* summary = field "summary" J.str in
  let* roles = field "roles" roles_of_json in
  let* uses_bgp = field "uses_bgp" J.bool in
  let* census = field "census" (J.list census_item) in
  let* filter_internal_pct =
    match J.member "filter_internal_pct" j with
    | Some J.Null -> Some None
    | Some v -> ( match float_of_json v with Some f -> Some (Some f) | None -> None)
    | None -> None
  in
  let* design = field "design" (fun v -> Option.bind (J.str v) design_of_string) in
  let* bgp_into_igp = field "bgp_into_igp" J.bool in
  let* ibgp_completeness = field "ibgp_completeness" (J.list float_of_json) in
  Some
    {
      label;
      arch;
      net_id;
      routers;
      summary;
      roles;
      uses_bgp;
      census;
      filter_internal_pct;
      design;
      bgp_into_igp;
      ibgp_completeness;
    }
