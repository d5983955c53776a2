open Rd_addr
open Rd_config

type verdict = Ast.action

let eval_addr (acl : Ast.acl) a =
  let rec go = function
    | [] -> Ast.Deny
    | (c : Ast.acl_clause) :: rest -> if Wildcard.matches c.src a then c.clause_action else go rest
  in
  go acl.clauses

let eval_route (acl : Ast.acl) p = eval_addr acl (Prefix.network p)

let wildcard_set w =
  match Wildcard.to_prefix w with
  | Some p -> (Prefix_set.of_prefix p, true)
  | None ->
    let prefixes, exact = Wildcard.to_prefixes w in
    (Prefix_set.of_prefixes prefixes, exact)

let clause_src_set (c : Ast.acl_clause) = wildcard_set c.src

let clause_dst_set (c : Ast.acl_clause) =
  match c.dst with None -> (Prefix_set.full, true) | Some d -> wildcard_set d

let lower (acl : Ast.acl) =
  (* First-match: a clause only claims addresses not claimed earlier. *)
  let rec go permitted claimed = function
    | [] -> permitted
    | (c : Ast.acl_clause) :: rest ->
      let s = Prefix_set.diff (fst (clause_src_set c)) claimed in
      let permitted =
        match c.clause_action with
        | Ast.Permit -> Prefix_set.union permitted s
        | Ast.Deny -> permitted
      in
      go permitted (Prefix_set.union claimed s) rest
  in
  go Prefix_set.empty Prefix_set.empty acl.clauses

(* One router's ACL is lowered once per domain no matter how many edges,
   neighbor statements or redistribution clauses reference it. *)
module Memo = Rd_util.Memo.Make (struct
  type t = Ast.acl
end)

let memo = Memo.create ~limit:(1 lsl 16)

let permitted_set acl = Memo.find_or_add memo acl lower

let exact (acl : Ast.acl) =
  List.for_all (fun (c : Ast.acl_clause) -> Wildcard.exact c.src) acl.clauses
