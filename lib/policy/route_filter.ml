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
   the map, and one AST value belongs to one config).  ACLs are memoized
   by {!Acl.permitted_set} itself. *)
module Pl_memo = Rd_util.Memo.Make (struct
  type t = Ast.prefix_list
end)

module Rm_memo = Rd_util.Memo.Make (struct
  type t = Ast.route_map
end)

let pl_memo = Pl_memo.create ~limit:(1 lsl 16)
let rm_memo = Rm_memo.create ~limit:(1 lsl 16)

let of_prefix_set s = s

let conj = Prefix_set.inter

let compile (cfg : Ast.t) ~acls ~prefix_lists ~route_maps () =
  let f = everything in
  let f =
    List.fold_left
      (fun acc name ->
        match Ast.find_acl cfg name with
        | Some acl -> conj acc (Acl.permitted_set acl)
        | None -> acc)
      f acls
  in
  let f =
    List.fold_left
      (fun acc name ->
        match Ast.find_prefix_list cfg name with
        | Some pl -> conj acc (Pl_memo.find_or_add pl_memo pl Prefix_list_policy.permitted_set)
        | None -> acc)
      f prefix_lists
  in
  List.fold_left
    (fun acc name ->
      match Ast.find_route_map cfg name with
      | Some rm ->
        conj acc
          (Rm_memo.find_or_add rm_memo rm (fun rm ->
               Route_map.permitted_set rm ~lookup_acl:(Ast.find_acl cfg)
                 ~lookup_prefix_list:(Ast.find_prefix_list cfg) ()))
      | None -> acc)
    f route_maps

let permits t p = Prefix_set.mem_prefix p t

let apply t s = Prefix_set.inter t s

let permitted t = t

let is_unrestricted t = Prefix_set.is_full t
