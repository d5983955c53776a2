(* The original structural prefix-set implementation, retained verbatim
   as the executable reference semantics for the hash-consed kernel in
   [Prefix_set].  Canonical binary trie: [Node (l, r)] is kept only when
   the children are not both [Empty] and not both [Full], so structural
   equality is semantic equality.  No sharing, no memoization — every
   operation rebuilds nodes.  Used by the qcheck agreement properties in
   [test_addr] and the structural fixpoint check in [test_reach]. *)

open Rd_addr

type t = Empty | Full | Node of t * t

let empty = Empty
let full = Full

let node l r =
  match (l, r) with
  | Empty, Empty -> Empty
  | Full, Full -> Full
  | _ -> Node (l, r)

let of_prefix p =
  let addr = Ipv4.to_int (Prefix.addr p) in
  let rec build depth =
    if depth = Prefix.len p then Full
    else begin
      let bit = addr land (1 lsl (31 - depth)) in
      let sub = build (depth + 1) in
      if bit = 0 then Node (sub, Empty) else Node (Empty, sub)
    end
  in
  build 0

let rec union a b =
  match (a, b) with
  | Full, _ | _, Full -> Full
  | Empty, x | x, Empty -> x
  | Node (al, ar), Node (bl, br) -> node (union al bl) (union ar br)

let rec inter a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Full, x | x, Full -> x
  | Node (al, ar), Node (bl, br) -> node (inter al bl) (inter ar br)

let rec complement = function
  | Empty -> Full
  | Full -> Empty
  | Node (l, r) -> Node (complement l, complement r)

let diff a b = inter a (complement b)

let of_prefixes ps = List.fold_left (fun acc p -> union acc (of_prefix p)) empty ps

let is_empty t = t = Empty
let equal (a : t) (b : t) = a = b

let subset a b = is_empty (diff a b)

let rec mem_bits addr depth = function
  | Empty -> false
  | Full -> true
  | Node (l, r) ->
    let bit = addr land (1 lsl (31 - depth)) in
    if bit = 0 then mem_bits addr (depth + 1) l else mem_bits addr (depth + 1) r

let mem a t = mem_bits (Ipv4.to_int a) 0 t

let to_prefixes t =
  let rec walk addr depth acc = function
    | Empty -> acc
    | Full -> Prefix.make (Ipv4.of_int addr) depth :: acc
    | Node (l, r) ->
      let acc = walk addr (depth + 1) acc l in
      walk (addr lor (1 lsl (31 - depth))) (depth + 1) acc r
  in
  List.rev (walk 0 0 [] t)

let count_addresses t =
  let rec count depth = function
    | Empty -> 0
    | Full -> 1 lsl (32 - depth)
    | Node (l, r) -> count (depth + 1) l + count (depth + 1) r
  in
  count 0 t
