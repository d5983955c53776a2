(* Hash-consed prefix-set kernel.

   The representation is the same canonical binary trie as the original
   structural implementation (retained in the test suite as the reference
   semantics): a [Node] is kept only when its children are not both
   [Empty] and not both [Full], so the shape of a set is unique.  On top
   of that invariant this kernel adds BDD-style hash-consing: every
   [Node] carries a globally-unique integer [id], and each domain owns a
   hashcons table mapping child identities to the one node built over
   them.  Two sets built in the same domain are therefore semantically
   equal iff they are physically equal, and the set operations memoize on
   node ids — a repeated [union]/[inter]/[diff]/[subset] over the same
   operands is an O(1) cache probe instead of a tree rebuild.  This is
   what makes the reachability fixpoint's inner loop (union, filter
   intersection, change detection) amortized constant time per edge.

   Domain safety.  Hashcons tables and memo caches live in domain-local
   storage (DLS, the same pattern as {!Rd_util.Trace}): the hot path
   never takes a lock and never shares mutable state.  Node ids come
   from one global atomic counter so an id names the same node in every
   domain.  A set that crossed a [Pool] domain boundary (built in a
   worker, read after the join) still compares correctly: equal ids
   decide positively in O(1), and different ids fall back to a
   structural descent that cuts off on shared subtrees.  Different ids
   must NOT be read as "different sets" — algebra over imported
   operands legitimately creates nodes that duplicate a local shape
   under a fresh id (the local table hash-conses on child identity, and
   an imported child is a different value than its local twin).  The
   canonical shape is what makes the descent sound; hash-consing only
   ever adds sharing, never meaning.  Memo caches are keyed by ids
   only, so cached results stay valid for imported nodes too — the only
   cross-domain cost is lost sharing, never lost correctness.

   Caches are bounded: a table that grows past [cache_limit] entries is
   discarded; rebuilt nodes then duplicate old shapes under fresh ids,
   which the equality above tolerates by construction. *)

type t = Empty | Full | Node of { id : int; l : t; r : t }

(* Identities: [Empty] and [Full] get the reserved ids 0 and 1; real
   nodes draw from the shared counter starting at 2. *)
let uid = function Empty -> 0 | Full -> 1 | Node n -> n.id

let next_id = Atomic.make 2

type stats_cell = {
  mutable s_nodes : int;
  mutable s_hits : int;
  mutable s_misses : int;
}

(* Every domain's counters are registered here once, at table creation;
   [stats] sums them.  Reads of other domains' cells are racy by design
   (stats are advisory), writes are domain-local. *)
let stats_registry : stats_cell list ref = ref []
let stats_mutex = Mutex.create ()

(* Every table key is one packed int (see [pack] below), so the tables
   are monomorphic: a probe allocates no key and pays neither the
   polymorphic hash nor the polymorphic compare.  Packed keys carry the
   dense child ids in their low bits, so the hash folds the high half in
   before mixing. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = (k lxor (k lsr 30)) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)
end)

type table = {
  nodes : t Int_tbl.t; (* packed (uid l, uid r) -> hash-consed node *)
  memo : t Int_tbl.t; (* packed (op, id, id) -> result *)
  memo_subset : bool Int_tbl.t;
  memo_count : int Int_tbl.t; (* packed (id, depth) -> addresses *)
  cell : stats_cell;
}

let cache_limit = 1 lsl 20

let table_key : table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let cell = { s_nodes = 0; s_hits = 0; s_misses = 0 } in
      Mutex.protect stats_mutex (fun () -> stats_registry := cell :: !stats_registry);
      {
        nodes = Int_tbl.create 4096;
        memo = Int_tbl.create 4096;
        memo_subset = Int_tbl.create 256;
        memo_count = Int_tbl.create 256;
        cell;
      })

let table () = Domain.DLS.get table_key

let reset_if_oversized tbl =
  if Int_tbl.length tbl.nodes > cache_limit then Int_tbl.reset tbl.nodes;
  if Int_tbl.length tbl.memo > cache_limit then Int_tbl.reset tbl.memo;
  if Int_tbl.length tbl.memo_subset > cache_limit then Int_tbl.reset tbl.memo_subset;
  if Int_tbl.length tbl.memo_count > cache_limit then Int_tbl.reset tbl.memo_count

(* Keys pack (op, id, id) into one 63-bit int: 2 op bits + 2×30 id bits
   (max key 3·2⁶⁰ + …, inside the 63-bit native int); the hash-cons key
   is the same packing with op 0.  Ids are dense (one global counter),
   so the packing is exact — never a collision — for the first ~10⁹
   nodes; beyond that nodes are simply built fresh and ops stop
   memoizing (correct, just slower: [equal] falls back to structure)
   rather than risking a packed-key collision between two live nodes. *)

let id_bits = 30
let id_limit = 1 lsl id_bits

let pack op a b = (((op lsl id_bits) lor a) lsl id_bits) lor b

let empty = Empty
let full = Full

let fresh tbl l r =
  tbl.cell.s_nodes <- tbl.cell.s_nodes + 1;
  Node { id = Atomic.fetch_and_add next_id 1; l; r }

let node l r =
  match (l, r) with
  | Empty, Empty -> Empty
  | Full, Full -> Full
  | _ ->
    let tbl = table () in
    let il = uid l and ir = uid r in
    if il >= id_limit || ir >= id_limit then fresh tbl l r
    else begin
      let key = pack 0 il ir in
      match Int_tbl.find_opt tbl.nodes key with
      | Some n -> n
      | None ->
        reset_if_oversized tbl;
        let n = fresh tbl l r in
        Int_tbl.add tbl.nodes key n;
        n
    end

let op_union = 0
let op_inter = 1
let op_diff = 2
let op_compl = 3

let memo_bin tbl op a b compute =
  let ia = uid a and ib = uid b in
  if ia >= id_limit || ib >= id_limit then compute ()
  else begin
    let key = pack op ia ib in
    match Int_tbl.find_opt tbl.memo key with
    | Some r ->
      tbl.cell.s_hits <- tbl.cell.s_hits + 1;
      r
    | None ->
      tbl.cell.s_misses <- tbl.cell.s_misses + 1;
      let r = compute () in
      if Int_tbl.length tbl.memo > cache_limit then Int_tbl.reset tbl.memo;
      Int_tbl.add tbl.memo key r;
      r
  end

(* union/inter are commutative: normalize the key order so [a op b] and
   [b op a] share one cache line. *)
let memo_comm tbl op a b compute =
  if uid a <= uid b then memo_bin tbl op a b compute else memo_bin tbl op b a compute

let rec union a b =
  match (a, b) with
  | Full, _ | _, Full -> Full
  | Empty, x | x, Empty -> x
  | Node na, Node nb ->
    if na.id = nb.id then a
    else memo_comm (table ()) op_union a b (fun () -> node (union na.l nb.l) (union na.r nb.r))

let rec inter a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Full, x | x, Full -> x
  | Node na, Node nb ->
    if na.id = nb.id then a
    else memo_comm (table ()) op_inter a b (fun () -> node (inter na.l nb.l) (inter na.r nb.r))

let rec complement = function
  | Empty -> Full
  | Full -> Empty
  | Node n as a ->
    memo_bin (table ()) op_compl a Empty (fun () -> node (complement n.l) (complement n.r))

let rec diff a b =
  match (a, b) with
  | Empty, _ | _, Full -> Empty
  | x, Empty -> x
  | Full, x -> complement x
  | Node na, Node nb ->
    if na.id = nb.id then Empty
    else memo_bin (table ()) op_diff a b (fun () -> node (diff na.l nb.l) (diff na.r nb.r))

let of_prefix p =
  let addr = Ipv4.to_int (Prefix.addr p) in
  let rec build depth =
    if depth = Prefix.len p then Full
    else begin
      let bit = addr land (1 lsl (31 - depth)) in
      let sub = build (depth + 1) in
      if bit = 0 then node sub Empty else node Empty sub
    end
  in
  build 0

(* Bulk construction, top-down over the sorted prefixes.  A segment
   [lo, hi) at [depth] holds the prefixes under one [depth]-bit trie
   path.  A prefix no longer than [depth] covers the whole segment, and
   since addresses are normalized it sorts first (smallest address, then
   shortest length), so [Full] is decided by the first prefix alone.
   Otherwise the segment splits at the first address with bit [depth]
   set.  Each node costs one hash-cons probe and no memo entries. *)
let of_prefixes ps =
  let sorted = Array.of_list ps in
  Array.sort Prefix.compare sorted;
  let addrs = Array.map (fun p -> Ipv4.to_int (Prefix.addr p)) sorted in
  let rec first_set bit lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if addrs.(mid) land bit = 0 then first_set bit (mid + 1) hi else first_set bit lo mid
    end
  in
  let rec build depth lo hi =
    if lo >= hi then Empty
    else if Prefix.len sorted.(lo) <= depth then Full
    else begin
      let mid = first_set (1 lsl (31 - depth)) lo hi in
      node (build (depth + 1) lo mid) (build (depth + 1) mid hi)
    end
  in
  build 0 0 (Array.length sorted)

let singleton a = of_prefix (Prefix.host a)
let remove p t = diff t (of_prefix p)

let is_empty = function Empty -> true | _ -> false
let is_full = function Full -> true | _ -> false

(* Equal ids decide positively in O(1) — the common case inside the
   fixpoint, where hash-consing hands back the very same node for an
   unchanged union.  Different ids decide NOTHING (imported operands
   and table resets create same-shape/different-id twins), so descend
   structurally; canonicity makes shape equality semantic equality, and
   shared subtrees still cut the descent off early on matching ids. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Empty, Empty | Full, Full -> true
  | Node na, Node nb -> na.id = nb.id || (equal na.l nb.l && equal na.r nb.r)
  | _ -> false

let rec subset a b =
  match (a, b) with
  | Empty, _ | _, Full -> true
  | Full, _ -> false (* b is Empty or a canonical Node, both proper subsets of Full *)
  | _, Empty -> false (* a is Full or a Node: non-empty by canonicity *)
  | Node na, Node nb ->
    if na.id = nb.id then true
    else begin
      let tbl = table () in
      let ia = na.id and ib = nb.id in
      if ia >= id_limit || ib >= id_limit then subset na.l nb.l && subset na.r nb.r
      else begin
        let key = pack 0 ia ib in
        match Int_tbl.find_opt tbl.memo_subset key with
        | Some r ->
          tbl.cell.s_hits <- tbl.cell.s_hits + 1;
          r
        | None ->
          tbl.cell.s_misses <- tbl.cell.s_misses + 1;
          let r = subset na.l nb.l && subset na.r nb.r in
          if Int_tbl.length tbl.memo_subset > cache_limit then
            Int_tbl.reset tbl.memo_subset;
          Int_tbl.add tbl.memo_subset key r;
          r
      end
    end

let rec mem_bits addr depth = function
  | Empty -> false
  | Full -> true
  | Node n ->
    let bit = addr land (1 lsl (31 - depth)) in
    if bit = 0 then mem_bits addr (depth + 1) n.l else mem_bits addr (depth + 1) n.r

let mem a t = mem_bits (Ipv4.to_int a) 0 t

let mem_prefix p t = subset (of_prefix p) t

let overlaps a b = not (is_empty (inter a b))

let to_prefixes t =
  let rec walk addr depth acc = function
    | Empty -> acc
    | Full -> Prefix.make (Ipv4.of_int addr) depth :: acc
    | Node n ->
      let acc = walk addr (depth + 1) acc n.l in
      walk (addr lor (1 lsl (31 - depth))) (depth + 1) acc n.r
  in
  List.rev (walk 0 0 [] t)

let rec count_subtree ~depth t =
  match t with
  | Empty -> 0
  | Full -> 1 lsl (32 - depth)
  | Node n ->
    let tbl = table () in
    if n.id >= id_limit then
      count_subtree ~depth:(depth + 1) n.l + count_subtree ~depth:(depth + 1) n.r
    else begin
      let key = (n.id lsl 6) lor depth in
      match Int_tbl.find_opt tbl.memo_count key with
      | Some c ->
        tbl.cell.s_hits <- tbl.cell.s_hits + 1;
        c
      | None ->
        tbl.cell.s_misses <- tbl.cell.s_misses + 1;
        let c =
          count_subtree ~depth:(depth + 1) n.l + count_subtree ~depth:(depth + 1) n.r
        in
        if Int_tbl.length tbl.memo_count > cache_limit then Int_tbl.reset tbl.memo_count;
        Int_tbl.add tbl.memo_count key c;
        c
    end

let count_addresses t = count_subtree ~depth:0 t

type view = Empty_v | Full_v | Split_v of t * t

let view = function
  | Empty -> Empty_v
  | Full -> Full_v
  | Node n -> Split_v (n.l, n.r)

type stats = { nodes : int; memo_hits : int; memo_misses : int }

let stats () =
  let cells = Mutex.protect stats_mutex (fun () -> !stats_registry) in
  List.fold_left
    (fun acc c ->
      {
        nodes = acc.nodes + c.s_nodes;
        memo_hits = acc.memo_hits + c.s_hits;
        memo_misses = acc.memo_misses + c.s_misses;
      })
    { nodes = 0; memo_hits = 0; memo_misses = 0 }
    cells

let pp ppf t =
  match to_prefixes t with
  | [] -> Format.pp_print_string ppf "{}"
  | ps ->
    Format.fprintf ppf "{%s}" (String.concat ", " (List.map Prefix.to_string ps))
