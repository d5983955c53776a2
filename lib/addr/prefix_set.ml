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

(* Every table key is one packed int (see [pack] below), never negative,
   so the tables are flat open-addressing arrays: a probe allocates
   nothing (no key, no option, no closure) and pays neither the
   polymorphic hash nor the polymorphic compare, and a hit costs one
   cache line of keys plus one of values.
   Capacity is a power of two, probing is linear, and [-1] marks a free
   slot.  Tables only grow (at 3/4 load) and are discarded wholesale
   past [cache_limit] entries, so there is no deletion and no tombstone.
   Packed keys carry the dense child ids in their low bits, so the hash
   folds the high half in before mixing. *)
module Tbl = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;
    mutable length : int;
    initial : int; (* a power of two *)
    dummy : 'a; (* the value of a free slot *)
  }

  let create initial dummy =
    { keys = Array.make initial (-1); vals = Array.make initial dummy; length = 0; initial; dummy }

  let hash k =
    let h = (k lxor (k lsr 30)) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)

  let rec probe keys mask key i =
    let k = keys.(i) in
    if k = key || k < 0 then i else probe keys mask key ((i + 1) land mask)

  (* The slot holding [key], or else the free slot where it would go. *)
  let slot t key =
    let mask = Array.length t.keys - 1 in
    probe t.keys mask key (hash key land mask)

  let found t i = t.keys.(i) >= 0
  let value t i = t.vals.(i)

  let reset t =
    t.keys <- Array.make t.initial (-1);
    t.vals <- Array.make t.initial t.dummy;
    t.length <- 0

  let grow t =
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.vals <- Array.make (2 * Array.length keys) t.dummy;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = slot t k in
          t.keys.(j) <- k;
          t.vals.(j) <- vals.(i)
        end)
      keys

  (* [key] must be absent. *)
  let add t key v =
    if 4 * (t.length + 1) > 3 * Array.length t.keys then grow t;
    let i = slot t key in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.length <- t.length + 1
end

type table = {
  nodes : t Tbl.t; (* packed (uid l, uid r) -> hash-consed node *)
  memo : t Tbl.t; (* packed (op, id, id) -> result *)
  memo_subset : bool Tbl.t;
  memo_count : int Tbl.t; (* packed (id, depth) -> addresses *)
  cell : stats_cell;
}

let cache_limit = 1 lsl 20

let table_key : table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let cell = { s_nodes = 0; s_hits = 0; s_misses = 0 } in
      Mutex.protect stats_mutex (fun () -> stats_registry := cell :: !stats_registry);
      {
        nodes = Tbl.create 4096 Empty;
        memo = Tbl.create 4096 Empty;
        memo_subset = Tbl.create 256 false;
        memo_count = Tbl.create 256 0;
        cell;
      })

let table () = Domain.DLS.get table_key

let reset_if_oversized tbl =
  if tbl.nodes.length > cache_limit then Tbl.reset tbl.nodes;
  if tbl.memo.length > cache_limit then Tbl.reset tbl.memo;
  if tbl.memo_subset.length > cache_limit then Tbl.reset tbl.memo_subset;
  if tbl.memo_count.length > cache_limit then Tbl.reset tbl.memo_count

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
      let i = Tbl.slot tbl.nodes key in
      if Tbl.found tbl.nodes i then Tbl.value tbl.nodes i
      else begin
        reset_if_oversized tbl;
        let n = fresh tbl l r in
        Tbl.add tbl.nodes key n;
        n
      end
    end

let op_union = 0
let op_inter = 1
let op_diff = 2
let op_compl = 3

(* [memoize cell memo key f a b] is [f a b], looked up in (or else added
   to) [memo] under [key] and counted in [cell] as a hit or a miss.
   Every [f] is a top-level function, so a probe allocates no closure. *)
let memoize cell memo key f a b =
  let i = Tbl.slot memo key in
  if Tbl.found memo i then begin
    cell.s_hits <- cell.s_hits + 1;
    Tbl.value memo i
  end
  else begin
    cell.s_misses <- cell.s_misses + 1;
    let r = f a b in
    if memo.Tbl.length > cache_limit then Tbl.reset memo;
    Tbl.add memo key r;
    r
  end

let memo_bin tbl op ia ib split a b =
  if ia >= id_limit || ib >= id_limit then split a b
  else memoize tbl.cell tbl.memo (pack op ia ib) split a b

(* union/inter are commutative: normalize the key order so [a op b] and
   [b op a] share one cache line. *)
let memo_comm tbl op split a b =
  let ia = uid a and ib = uid b in
  if ia <= ib then memo_bin tbl op ia ib split a b else memo_bin tbl op ib ia split a b

(* The two halves of a set below its root bit: [Empty] and [Full] are
   their own halves. *)
let left = function Node n -> n.l | s -> s
let right = function Node n -> n.r | s -> s

let rec union a b =
  match (a, b) with
  | Full, _ | _, Full -> Full
  | Empty, x | x, Empty -> x
  | Node na, Node nb ->
    if na.id = nb.id then a else memo_comm (table ()) op_union union_split a b

and union_split a b = node (union (left a) (left b)) (union (right a) (right b))

let rec inter a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Full, x | x, Full -> x
  | Node na, Node nb ->
    if na.id = nb.id then a else memo_comm (table ()) op_inter inter_split a b

and inter_split a b = node (inter (left a) (left b)) (inter (right a) (right b))

let rec complement = function
  | Empty -> Full
  | Full -> Empty
  | Node n as a -> memo_bin (table ()) op_compl n.id 0 complement_split a Empty

and complement_split a _ = node (complement (left a)) (complement (right a))

let rec diff a b =
  match (a, b) with
  | Empty, _ | _, Full -> Empty
  | x, Empty -> x
  | Full, x -> complement x
  | Node na, Node nb ->
    if na.id = nb.id then Empty else memo_bin (table ()) op_diff na.id nb.id diff_split a b

and diff_split a b = node (diff (left a) (left b)) (diff (right a) (right b))

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
    else if na.id >= id_limit || nb.id >= id_limit then subset_split a b
    else begin
      let tbl = table () in
      memoize tbl.cell tbl.memo_subset (pack 0 na.id nb.id) subset_split a b
    end

and subset_split a b = subset (left a) (left b) && subset (right a) (right b)

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
    if n.id >= id_limit then count_halves (depth + 1) t
    else begin
      let tbl = table () in
      memoize tbl.cell tbl.memo_count ((n.id lsl 6) lor depth) count_halves (depth + 1) t
    end

(* The addresses of [t]'s two halves, rooted [depth] bits down. *)
and count_halves depth t = count_subtree ~depth (left t) + count_subtree ~depth (right t)

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
