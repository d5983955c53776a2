open Rd_addr
open Rd_config

type t = Prefix_set.t  (* the permitted destination set *)

let everything = Prefix_set.full

(* Per-domain policy→set memo keyed by physical identity of the AST
   node.  A named policy is parsed once per config, so the same ACL /
   prefix-list / route-map value is referenced by every edge that names
   it; lowering it once per domain turns filter construction from
   O(edges × clauses) into O(policies × clauses).  The memo assumes the
   lowering of a policy value is a function of the value itself (true
   here: route-map match references resolve inside the config that owns
   the map, and one AST value belongs to one config). *)
module Memo (T : sig
  type t
end) =
struct
  module Tbl = Hashtbl.Make (struct
    type t = T.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  let key : Prefix_set.t Tbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Tbl.create 64)

  let limit = 1 lsl 16

  let get k compute =
    let tbl = Domain.DLS.get key in
    match Tbl.find_opt tbl k with
    | Some s -> s
    | None ->
      let s = compute () in
      if Tbl.length tbl > limit then Tbl.reset tbl;
      Tbl.add tbl k s;
      s
end

module Pl_memo = Memo (struct
  type t = Ast.prefix_list
end)

module Rm_memo = Memo (struct
  type t = Ast.route_map
end)

let of_acl ?diag acl = Acl.permitted_set ?diag acl

let of_route_map ?diag rm ~lookup_acl ?lookup_prefix_list () =
  let direct () = Route_map.permitted_set ?diag rm ~lookup_acl ?lookup_prefix_list () in
  (* As with ACLs, a diag-carrying lowering bypasses the cache so
     warnings are reported exactly when asked for. *)
  match diag with Some _ -> direct () | None -> Rm_memo.get rm direct

let of_prefix_list pl = Pl_memo.get pl (fun () -> Prefix_list_policy.permitted_set pl)

let of_prefix_set s = s

let conj = Prefix_set.inter

let compile ?diag (cfg : Ast.t) ~acls ~prefix_lists ~route_maps () =
  let f = everything in
  let f =
    List.fold_left
      (fun acc name ->
        match Ast.find_acl cfg name with
        | Some acl -> conj acc (of_acl ?diag acl)
        | None -> acc)
      f acls
  in
  let f =
    List.fold_left
      (fun acc name ->
        match Ast.find_prefix_list cfg name with
        | Some pl -> conj acc (of_prefix_list pl)
        | None -> acc)
      f prefix_lists
  in
  List.fold_left
    (fun acc name ->
      match Ast.find_route_map cfg name with
      | Some rm ->
        conj acc
          (of_route_map ?diag rm ~lookup_acl:(Ast.find_acl cfg)
             ~lookup_prefix_list:(Ast.find_prefix_list cfg) ())
      | None -> acc)
    f route_maps

let permits t p = Prefix_set.mem_prefix p t

let apply t s = Prefix_set.inter t s

let permitted t = t

let is_unrestricted t = Prefix_set.is_full t
