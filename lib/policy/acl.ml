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

let clause_set ?diag ?acl_name (c : Ast.acl_clause) =
  match Wildcard.to_prefix c.src with
  | Some p -> Prefix_set.of_prefix p
  | None ->
    (* Non-contiguous wildcard: expand exactly when the enumeration is
       bounded, else take the smallest contiguous cover and say so. *)
    let prefixes, exact = Wildcard.to_prefixes c.src in
    if not exact then
      Diag.reportf diag Diag.Warning ~code:"acl-wildcard-approx"
        "%snon-contiguous wildcard %s needs more than 2^12 prefixes; clause set over-approximated"
        (match acl_name with Some n -> Printf.sprintf "access-list %s: " n | None -> "")
        (Wildcard.to_string c.src);
    Prefix_set.of_prefixes prefixes

let permitted_set_direct ?diag (acl : Ast.acl) =
  (* First-match: a clause only claims addresses not claimed earlier. *)
  let rec go permitted claimed = function
    | [] -> permitted
    | (c : Ast.acl_clause) :: rest ->
      let s = Prefix_set.diff (clause_set ?diag ~acl_name:acl.acl_name c) claimed in
      let permitted =
        match c.clause_action with
        | Ast.Permit -> Prefix_set.union permitted s
        | Ast.Deny -> permitted
      in
      go permitted (Prefix_set.union claimed s) rest
  in
  go Prefix_set.empty Prefix_set.empty acl.clauses

(* Per-domain ACL→set memo (physical identity): one router's ACL is
   lowered once no matter how many edges, neighbor statements or
   redistribution clauses reference it.  Lowering with a [diag]
   collector bypasses the cache so warnings are never swallowed by an
   earlier diag-less lowering (and vice versa). *)
module Acl_tbl = Hashtbl.Make (struct
  type t = Ast.acl

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let memo_key : Prefix_set.t Acl_tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Acl_tbl.create 256)

let memo_limit = 1 lsl 16

let permitted_set ?diag (acl : Ast.acl) =
  match diag with
  | Some _ -> permitted_set_direct ?diag acl
  | None -> (
    let tbl = Domain.DLS.get memo_key in
    match Acl_tbl.find_opt tbl acl with
    | Some s -> s
    | None ->
      let s = permitted_set_direct acl in
      if Acl_tbl.length tbl > memo_limit then Acl_tbl.reset tbl;
      Acl_tbl.add tbl acl s;
      s)

let wildcard_set w =
  match Wildcard.to_prefix w with
  | Some p -> (Prefix_set.of_prefix p, true)
  | None ->
    let prefixes, exact = Wildcard.to_prefixes w in
    (Prefix_set.of_prefixes prefixes, exact)

let clause_src_set (c : Ast.acl_clause) = wildcard_set c.src

let clause_dst_set (c : Ast.acl_clause) =
  match c.dst with None -> (Prefix_set.full, true) | Some d -> wildcard_set d
