open Rd_addr
open Rd_config

let entry_bounds (e : Ast.prefix_list_entry) =
  let base_len = Prefix.len e.pl_prefix in
  let lo = match e.pl_ge with Some g -> max g base_len | None -> base_len in
  let hi =
    match e.pl_le with
    | Some le -> min le 32
    | None -> ( match e.pl_ge with Some _ -> 32 | None -> base_len)
  in
  (lo, hi)

let entry_matches (e : Ast.prefix_list_entry) route =
  let lo, hi = entry_bounds e in
  let l = Prefix.len route in
  l >= lo && l <= hi && Prefix.mem (Prefix.addr route) e.pl_prefix

let eval (pl : Ast.prefix_list) route =
  let rec go = function
    | [] -> Ast.Deny
    | e :: rest -> if entry_matches e route then e.Ast.pl_action else go rest
  in
  go pl.pl_entries

let permitted_set (pl : Ast.prefix_list) =
  let rec go permitted claimed = function
    | [] -> permitted
    | (e : Ast.prefix_list_entry) :: rest ->
      let s = Prefix_set.diff (Prefix_set.of_prefix e.pl_prefix) claimed in
      let permitted =
        match e.pl_action with
        | Ast.Permit -> Prefix_set.union permitted s
        | Ast.Deny -> permitted
      in
      go permitted (Prefix_set.union claimed s) rest
  in
  go Prefix_set.empty Prefix_set.empty pl.pl_entries
