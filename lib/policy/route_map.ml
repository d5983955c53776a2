open Rd_addr
open Rd_config

type route = { net : Prefix.t; tag : int option; metric : int option }

type result = Permitted of route | Denied

let acl_matches lookup_acl name p =
  match lookup_acl name with
  | Some acl -> Acl.eval_route acl p = Ast.Permit
  | None -> false

let pl_matches lookup_pl name p =
  match lookup_pl name with
  | Some pl -> Prefix_list_policy.eval pl p = Ast.Permit
  | None -> false

let entry_matches lookup_acl lookup_pl (e : Ast.route_map_entry) (r : route) =
  let prefix_ok =
    match (e.match_acls, e.match_prefix_lists) with
    | [], [] -> true
    | acls, pls ->
      (* several match values are alternatives (IOS OR semantics) *)
      List.exists (fun a -> acl_matches lookup_acl a r.net) acls
      || List.exists (fun n -> pl_matches lookup_pl n r.net) pls
  in
  let tag_ok =
    match e.match_tags with
    | [] -> true
    | tags -> (match r.tag with Some t -> List.mem t tags | None -> false)
  in
  prefix_ok && tag_ok

let apply_sets (e : Ast.route_map_entry) (r : route) =
  let tag = match e.set_tag with Some t -> Some t | None -> r.tag in
  let metric = match e.set_metric with Some m -> Some m | None -> r.metric in
  { r with tag; metric }

let eval (rm : Ast.route_map) ~lookup_acl ?(lookup_prefix_list = fun _ -> None) r =
  let rec go = function
    | [] -> Denied
    | (e : Ast.route_map_entry) :: rest ->
      if entry_matches lookup_acl lookup_prefix_list e r then begin
        match e.rm_action with
        | Ast.Permit -> Permitted (apply_sets e r)
        | Ast.Deny -> Denied
      end
      else go rest
  in
  go rm.entries

let permitted_set (rm : Ast.route_map) ~lookup_acl ?(lookup_prefix_list = fun _ -> None) () =
  let acl_set name =
    match lookup_acl name with
    | Some acl -> Acl.permitted_set acl
    | None -> Prefix_set.empty
  in
  let pl_set name =
    match lookup_prefix_list name with
    | Some pl -> Prefix_list_policy.permitted_set pl
    | None -> Prefix_set.empty
  in
  let entry_set (e : Ast.route_map_entry) =
    match (e.match_acls, e.match_prefix_lists) with
    | [], [] -> Prefix_set.full
    | acls, pls ->
      List.fold_left (fun acc a -> Prefix_set.union acc (acl_set a)) Prefix_set.empty acls
      |> fun base ->
      List.fold_left (fun acc n -> Prefix_set.union acc (pl_set n)) base pls
  in
  (* Tag matches are invisible at the prefix-set level, so an entry with
     [match tag] only *maybe* applies to a route.  To stay an
     over-approximation: a permit entry still contributes its prefixes
     (the route might match), but a deny entry must claim nothing — a
     route its tag clause rejects falls through to later permit entries.
     The old behaviour (deny claims its prefix set) silently
     under-approximated, which the crosscheck oracle flags as a
     containment violation. *)
  let rec go permitted claimed = function
    | [] -> permitted
    | (e : Ast.route_map_entry) :: rest ->
      let s = Prefix_set.diff (entry_set e) claimed in
      (match e.rm_action with
       | Ast.Permit -> go (Prefix_set.union permitted s) (Prefix_set.union claimed s) rest
       | Ast.Deny ->
         if e.match_tags <> [] then go permitted claimed rest
         else go permitted (Prefix_set.union claimed s) rest)
  in
  go Prefix_set.empty Prefix_set.empty rm.entries

let exact (rm : Ast.route_map) ~lookup_acl =
  List.for_all
    (fun (e : Ast.route_map_entry) ->
      e.match_tags = []
      && List.for_all
           (fun name -> match lookup_acl name with Some acl -> Acl.exact acl | None -> true)
           e.match_acls)
    rm.entries
