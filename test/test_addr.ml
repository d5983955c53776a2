(* Tests for rd_addr: addresses, prefixes, wildcards, prefix sets, tries. *)

open Rd_addr

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------- Ipv4 --- *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> check_string s s (Ipv4.to_string (ip s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.0.0.1"; "192.168.255.254"; "1.2.3.4" ]

let test_ipv4_reject () =
  List.iter
    (fun s -> check_bool s true (Ipv4.of_string s = None))
    [
      ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "1.2.3.256"; "a.b.c.d"; "1..2.3"; "1.2.3.4 ";
      " 1.2.3.4"; "01234.1.1.1"; "1.2.3.-4"; "1.2.3.4/24";
      (* leading zeros are ambiguous (octal in many parsers) — reject *)
      "010.0.0.1"; "1.02.3.4"; "1.2.3.04"; "00.0.0.0";
    ]

let test_ipv4_octets () =
  let a = Ipv4.of_octets 192 168 1 77 in
  check_string "octets" "192.168.1.77" (Ipv4.to_string a);
  let w, x, y, z = Ipv4.octets a in
  check_int "o1" 192 w;
  check_int "o2" 168 x;
  check_int "o3" 1 y;
  check_int "o4" 77 z

let test_ipv4_order () =
  check_bool "lt" true (Ipv4.compare (ip "1.0.0.0") (ip "2.0.0.0") < 0);
  check_bool "eq" true (Ipv4.equal (ip "9.9.9.9") (ip "9.9.9.9"));
  check_bool "succ" true (Ipv4.equal (Ipv4.succ (ip "1.2.3.255")) (ip "1.2.4.0"));
  check_bool "wrap" true (Ipv4.equal (Ipv4.succ Ipv4.broadcast_all) Ipv4.zero)

(* ----------------------------------------------------------- Prefix --- *)

let test_prefix_parse () =
  check_string "p24" "10.1.2.0/24" (Prefix.to_string (pfx "10.1.2.99/24"));
  check_string "p0" "0.0.0.0/0" (Prefix.to_string (pfx "255.1.2.3/0"));
  check_string "bare" "10.0.0.1/32" (Prefix.to_string (pfx "10.0.0.1"));
  check_bool "badlen" true (Prefix.of_string "10.0.0.0/33" = None);
  check_bool "neglen" true (Prefix.of_string "10.0.0.0/-1" = None)

let test_prefix_masks () =
  check_string "netmask30" "255.255.255.252" (Ipv4.to_string (Prefix.netmask (pfx "10.0.0.0/30")));
  check_string "hostmask30" "0.0.0.3" (Ipv4.to_string (Prefix.hostmask (pfx "10.0.0.0/30")));
  check_string "netmask0" "0.0.0.0" (Ipv4.to_string (Prefix.netmask Prefix.default));
  check_string "broadcast" "10.0.0.255" (Ipv4.to_string (Prefix.broadcast (pfx "10.0.0.0/24")))

let test_prefix_of_addr_mask () =
  let ok a m expect =
    match Prefix.of_addr_mask (ip a) (ip m) with
    | Some p -> check_string (a ^ " " ^ m) expect (Prefix.to_string p)
    | None -> Alcotest.failf "expected %s for %s %s" expect a m
  in
  ok "10.1.2.3" "255.255.255.0" "10.1.2.0/24";
  ok "10.1.2.3" "255.255.255.255" "10.1.2.3/32";
  ok "10.1.2.3" "0.0.0.0" "0.0.0.0/0";
  ok "66.253.32.85" "255.255.255.252" "66.253.32.84/30";
  check_bool "noncontiguous" true (Prefix.of_addr_mask (ip "10.0.0.0") (ip "255.0.255.0") = None);
  check_bool "holes" true (Prefix.of_addr_mask (ip "10.0.0.0") (ip "255.255.255.253") = None)

let test_prefix_relations () =
  check_bool "mem" true (Prefix.mem (ip "10.1.2.3") (pfx "10.1.0.0/16"));
  check_bool "not-mem" false (Prefix.mem (ip "10.2.0.0") (pfx "10.1.0.0/16"));
  check_bool "subset" true (Prefix.subset (pfx "10.1.2.0/24") (pfx "10.1.0.0/16"));
  check_bool "not-subset" false (Prefix.subset (pfx "10.1.0.0/16") (pfx "10.1.2.0/24"));
  check_bool "overlap" true (Prefix.overlap (pfx "10.1.0.0/16") (pfx "10.1.2.0/24"));
  check_bool "disjoint" false (Prefix.overlap (pfx "10.1.0.0/16") (pfx "10.2.0.0/16"))

let test_prefix_structure () =
  (match Prefix.split (pfx "10.0.0.0/24") with
   | Some (l, r) ->
     check_string "left" "10.0.0.0/25" (Prefix.to_string l);
     check_string "right" "10.0.0.128/25" (Prefix.to_string r)
   | None -> Alcotest.fail "split failed");
  check_bool "split32" true (Prefix.split (pfx "1.1.1.1/32") = None);
  (* the sibling is the other half of the parent's split *)
  (match Option.bind (Prefix.parent (pfx "10.0.0.128/25")) Prefix.split with
   | Some (s, _) -> check_string "sibling" "10.0.0.0/25" (Prefix.to_string s)
   | None -> Alcotest.fail "sibling failed");
  check_bool "parent0" true (Prefix.parent Prefix.default = None);
  (match Prefix.parent (pfx "10.0.1.0/24") with
   | Some p -> check_string "parent" "10.0.0.0/23" (Prefix.to_string p)
   | None -> Alcotest.fail "parent failed")

let test_prefix_nth () =
  check_string "nth" "10.0.0.5" (Ipv4.to_string (Prefix.nth (pfx "10.0.0.0/24") 5));
  check_string "nth_subnet" "10.0.3.0/24"
    (Prefix.to_string (Prefix.nth_subnet (pfx "10.0.0.0/16") 24 3));
  check_int "size30" 4 (Prefix.size (pfx "1.0.0.0/30"))

(* --------------------------------------------------------- Wildcard --- *)

let test_wildcard_match () =
  let w = Wildcard.make (ip "66.251.75.128") (ip "0.0.0.127") in
  check_bool "inside" true (Wildcard.matches w (ip "66.251.75.144"));
  check_bool "outside" false (Wildcard.matches w (ip "66.251.76.1"));
  check_bool "any" true (Wildcard.matches Wildcard.any (ip "1.2.3.4"));
  check_bool "host-hit" true (Wildcard.matches (Wildcard.host (ip "5.5.5.5")) (ip "5.5.5.5"));
  check_bool "host-miss" false (Wildcard.matches (Wildcard.host (ip "5.5.5.5")) (ip "5.5.5.6"))

let test_wildcard_noncontiguous () =
  (* wildcard 0.0.255.0: third octet free, fourth fixed *)
  let w = Wildcard.make (ip "10.1.0.7") (ip "0.0.255.0") in
  check_bool "match1" true (Wildcard.matches w (ip "10.1.77.7"));
  check_bool "match2" false (Wildcard.matches w (ip "10.1.77.8"));
  check_bool "contig" false (Wildcard.is_contiguous w);
  check_bool "to_prefix" true (Wildcard.to_prefix w = None)

let test_wildcard_to_prefixes () =
  (* contiguous: single exact prefix *)
  (match Wildcard.to_prefixes (Wildcard.make (ip "10.0.0.0") (ip "0.0.0.255")) with
   | [ p ], true -> check_string "contiguous" "10.0.0.0/24" (Prefix.to_string p)
   | ps, exact -> Alcotest.failf "contiguous: %d prefixes, exact=%b" (List.length ps) exact);
  (* wildcard 0.0.0.5: bit 0 folds into the length, bit 2 is enumerated *)
  (match Wildcard.to_prefixes (Wildcard.make (ip "10.0.0.0") (ip "0.0.0.5")) with
   | [ a; b ], true ->
     Alcotest.(check (list string))
       "scattered pair" [ "10.0.0.0/31"; "10.0.0.4/31" ]
       (List.sort compare [ Prefix.to_string a; Prefix.to_string b ])
   | ps, exact -> Alcotest.failf "0.0.0.5: %d prefixes, exact=%b" (List.length ps) exact);
  (* third octet free, fourth fixed: 256 host prefixes, all matching *)
  let w = Wildcard.make (ip "10.1.0.7") (ip "0.0.255.0") in
  let ps, exact = Wildcard.to_prefixes w in
  check_bool "exact" true exact;
  check_int "256 prefixes" 256 (List.length ps);
  check_bool "all match" true
    (List.for_all (fun p -> Prefix.len p = 32 && Wildcard.matches w (Prefix.addr p)) ps);
  (* 23 scattered bits exceed the cap: single over-approximate cover *)
  (match Wildcard.to_prefixes (Wildcard.make (ip "10.0.0.1") (ip "0.255.255.254")) with
   | [ p ], false ->
     check_string "over-approx cover" "10.0.0.0/8" (Prefix.to_string p)
   | ps, exact -> Alcotest.failf "over-approx: %d prefixes, exact=%b" (List.length ps) exact)

let test_wildcard_prefix_bridge () =
  let p = pfx "192.168.4.0/22" in
  let w = Wildcard.of_prefix p in
  check_string "of_prefix" "192.168.4.0 0.0.3.255" (Wildcard.to_string w);
  (match Wildcard.to_prefix w with
   | Some p' -> check_string "back" (Prefix.to_string p) (Prefix.to_string p')
   | None -> Alcotest.fail "to_prefix");
  let covers q = Wildcard.matches w (Prefix.network q) && Wildcard.matches w (Prefix.broadcast q) in
  check_bool "covers" true (covers p);
  check_bool "covers-sub" true (covers (pfx "192.168.5.0/24"));
  check_bool "not-covers-super" false (covers (pfx "192.168.0.0/16"))

(* ------------------------------------------------------- Prefix_set --- *)

let set l = Prefix_set.of_prefixes (List.map pfx l)

let test_set_basics () =
  check_bool "empty" true (Prefix_set.is_empty Prefix_set.empty);
  check_bool "full" true (Prefix_set.is_full Prefix_set.full);
  check_bool "mem" true (Prefix_set.mem (ip "10.1.2.3") (set [ "10.0.0.0/8" ]));
  check_bool "not-mem" false (Prefix_set.mem (ip "11.0.0.0") (set [ "10.0.0.0/8" ]));
  check_int "count" 256 (Prefix_set.count_addresses (set [ "10.0.0.0/24" ]));
  check_int "count2" 512 (Prefix_set.count_addresses (set [ "10.0.0.0/24"; "10.0.9.0/24" ]))

let test_set_canonical_merge () =
  (* two siblings collapse into the parent *)
  let s = set [ "10.0.0.0/25"; "10.0.0.128/25" ] in
  check_bool "equal-to-parent" true (Prefix_set.equal s (set [ "10.0.0.0/24" ]));
  match Prefix_set.to_prefixes s with
  | [ p ] -> check_string "merged" "10.0.0.0/24" (Prefix.to_string p)
  | l -> Alcotest.failf "expected 1 prefix, got %d" (List.length l)

let test_set_algebra () =
  let a = set [ "10.0.0.0/8" ] and b = set [ "10.1.0.0/16"; "11.0.0.0/8" ] in
  check_bool "inter" true (Prefix_set.equal (Prefix_set.inter a b) (set [ "10.1.0.0/16" ]));
  check_bool "union-mem" true (Prefix_set.mem (ip "11.5.5.5") (Prefix_set.union a b));
  check_bool "diff" false (Prefix_set.mem (ip "10.1.2.3") (Prefix_set.diff a b));
  check_bool "diff-keeps" true (Prefix_set.mem (ip "10.2.0.0") (Prefix_set.diff a b));
  check_bool "compl" true (Prefix_set.mem (ip "12.0.0.0") (Prefix_set.complement a));
  check_bool "compl-not" false (Prefix_set.mem (ip "10.0.0.1") (Prefix_set.complement a));
  check_bool "subset" true (Prefix_set.subset (set [ "10.1.2.0/24" ]) a);
  check_bool "not-subset" false (Prefix_set.subset b a);
  check_bool "overlaps" true (Prefix_set.overlaps a b);
  check_bool "disjoint" false (Prefix_set.overlaps (set [ "12.0.0.0/8" ]) a)

let test_set_net15_property () =
  (* the paper's key check: policy intersections are empty *)
  let a2 = set [ "10.16.0.0/14" ] in
  let a5 = set [ "198.18.0.0/16"; "198.19.0.0/16" ] in
  check_bool "A2&A5 empty" true (Prefix_set.is_empty (Prefix_set.inter a2 a5))

let test_set_to_prefixes_minimal () =
  let s = set [ "10.0.0.0/24"; "10.0.1.0/24"; "10.0.2.0/24" ] in
  (* 10.0.0.0/23 + 10.0.2.0/24 *)
  let ps = List.map Prefix.to_string (Prefix_set.to_prefixes s) in
  Alcotest.(check (list string)) "minimal" [ "10.0.0.0/23"; "10.0.2.0/24" ] ps

(* qcheck properties *)

let arb_prefix =
  QCheck.make
    ~print:(fun p -> Prefix.to_string p)
    QCheck.Gen.(
      let* len = int_bound 32 in
      let* a = map Int32.to_int int32 in
      return (Prefix.make (Ipv4.of_int (a land 0xFFFFFFFF)) len))

let arb_set =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Prefix_set.pp s)
    QCheck.Gen.(
      let* prefixes = list_size (int_bound 8) (QCheck.gen arb_prefix) in
      return (Prefix_set.of_prefixes prefixes))

let prop_union_commutative =
  QCheck.Test.make ~name:"prefix_set union commutative" ~count:200
    (QCheck.pair arb_set arb_set)
    (fun (a, b) -> Prefix_set.equal (Prefix_set.union a b) (Prefix_set.union b a))

let prop_inter_idempotent =
  QCheck.Test.make ~name:"prefix_set inter idempotent" ~count:200 arb_set (fun a ->
      Prefix_set.equal (Prefix_set.inter a a) a)

let prop_de_morgan =
  QCheck.Test.make ~name:"prefix_set De Morgan" ~count:200
    (QCheck.pair arb_set arb_set)
    (fun (a, b) ->
      Prefix_set.equal
        (Prefix_set.complement (Prefix_set.union a b))
        (Prefix_set.inter (Prefix_set.complement a) (Prefix_set.complement b)))

let prop_diff_disjoint =
  QCheck.Test.make ~name:"prefix_set diff disjoint from subtrahend" ~count:200
    (QCheck.pair arb_set arb_set)
    (fun (a, b) -> not (Prefix_set.overlaps (Prefix_set.diff a b) b))

let prop_to_prefixes_faithful =
  QCheck.Test.make ~name:"prefix_set to_prefixes faithful" ~count:200 arb_set (fun a ->
      Prefix_set.equal a (Prefix_set.of_prefixes (Prefix_set.to_prefixes a)))

let prop_count_matches_prefixes =
  QCheck.Test.make ~name:"prefix_set count = sum of prefix sizes" ~count:200 arb_set (fun a ->
      Prefix_set.count_addresses a
      = List.fold_left (fun acc p -> acc + Prefix.size p) 0 (Prefix_set.to_prefixes a))

let prop_mem_union =
  QCheck.Test.make ~name:"mem union = mem or mem" ~count:200
    (QCheck.triple arb_set arb_set arb_prefix)
    (fun (a, b, p) ->
      let x = Prefix.addr p in
      Prefix_set.mem x (Prefix_set.union a b) = (Prefix_set.mem x a || Prefix_set.mem x b))

let arb_sparse_wildcard =
  (* wildcards with at most 12 wild bits — the regime where to_prefixes is
     exact by contract *)
  QCheck.make ~print:Wildcard.to_string
    QCheck.Gen.(
      let* base = map Int32.to_int int32 in
      let* nbits = int_bound 12 in
      let* positions = list_repeat nbits (int_bound 31) in
      let wild = List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 positions in
      return (Wildcard.make (Ipv4.of_int (base land 0xFFFFFFFF)) (Ipv4.of_int wild)))

let prop_wildcard_to_prefixes_exact =
  QCheck.Test.make ~name:"wildcard to_prefixes = wildcard membership (<=12 wild bits)"
    ~count:300
    (QCheck.pair arb_sparse_wildcard (QCheck.make QCheck.Gen.(map Int32.to_int int32)))
    (fun (w, a) ->
      let ps, exact = Wildcard.to_prefixes w in
      let addr = Ipv4.of_int (a land 0xFFFFFFFF) in
      (* an address forced to match: base with arbitrary values in wild bits *)
      let forced =
        Ipv4.of_int
          (Ipv4.to_int (Wildcard.base w) lor (a land Ipv4.to_int (Wildcard.wild w)))
      in
      exact
      && Wildcard.matches w addr = List.exists (fun p -> Prefix.mem addr p) ps
      && List.exists (fun p -> Prefix.mem forced p) ps)

(* Wildcards with [k] in 0-20 wild bits above a low contiguous run of
   wild bits, straddling the 12-bit enumeration cap. *)
let arb_scattered_wildcard =
  QCheck.make ~print:Wildcard.to_string
    QCheck.Gen.(
      let* base = map Int32.to_int int32 in
      let* k = int_range 0 20 in
      let* run = int_range 0 (31 - k) in
      (* bit [run] stays fixed so the low run ends there *)
      let* above = shuffle_l (List.init (31 - run) (fun i -> run + 1 + i)) in
      let wild =
        List.fold_left (fun acc p -> acc lor (1 lsl p)) ((1 lsl run) - 1)
          (List.filteri (fun i _ -> i < k) above)
      in
      return (Wildcard.make (Ipv4.of_int (base land 0xFFFFFFFF)) (Ipv4.of_int wild)))

let prop_wildcard_exact =
  QCheck.Test.make ~name:"wildcard exact = to_prefixes exactness flag" ~count:300
    arb_scattered_wildcard (fun w -> Wildcard.exact w = snd (Wildcard.to_prefixes w))

(* -------------------------------------- kernel vs structural reference --- *)

module R = Prefix_set_ref

let arb_prefixes =
  QCheck.make
    ~print:(fun ps -> String.concat "," (List.map Prefix.to_string ps))
    QCheck.Gen.(list_size (int_bound 8) (QCheck.gen arb_prefix))

let rec ref_canonical = function
  | R.Empty | R.Full -> true
  | R.Node (R.Empty, R.Empty) | R.Node (R.Full, R.Full) -> false
  | R.Node (l, r) -> ref_canonical l && ref_canonical r

let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"hash-consed kernel agrees with structural reference"
    ~count:300
    (QCheck.pair arb_prefixes arb_prefixes)
    (fun (ps, qs) ->
      let ka = Prefix_set.of_prefixes ps and kb = Prefix_set.of_prefixes qs in
      let ra = R.of_prefixes ps and rb = R.of_prefixes qs in
      let k_strings s = List.map Prefix.to_string (Prefix_set.to_prefixes s) in
      let r_strings s = List.map Prefix.to_string (R.to_prefixes s) in
      let agree op_k op_r = k_strings (op_k ka kb) = r_strings (op_r ra rb) in
      ref_canonical ra && ref_canonical rb
      && agree Prefix_set.union R.union
      && agree Prefix_set.inter R.inter
      && agree Prefix_set.diff R.diff
      && k_strings (Prefix_set.complement ka) = r_strings (R.complement ra)
      && Prefix_set.equal ka kb = R.equal ra rb
      && Prefix_set.subset ka kb = R.subset ra rb
      && Prefix_set.is_empty ka = R.is_empty ra
      && Prefix_set.count_addresses ka = R.count_addresses ra)

let prop_kernel_mem_matches_reference =
  QCheck.Test.make ~name:"kernel mem agrees with reference" ~count:300
    (QCheck.pair arb_prefixes arb_prefix)
    (fun (ps, p) ->
      let a = Prefix.addr p in
      Prefix_set.mem a (Prefix_set.of_prefixes ps) = R.mem a (R.of_prefixes ps))

(* Up to 300 prefixes inside one /16, the shape interface addresses and
   subnets take in a real network: /31 and /32 hosts, nested and
   duplicated prefixes, sometimes the default route, in shuffled order. *)
let arb_clustered_prefixes =
  let gen =
    QCheck.Gen.(
      let* block = map (fun a -> Int32.to_int a land 0xFFFF0000) int32 in
      let inside =
        let* off = int_bound 0xFFFF in
        let* len = frequency [ (3, int_range 16 30); (2, return 31); (3, return 32) ] in
        return (Prefix.make (Ipv4.of_int (block lor off)) len)
      in
      let* base = list_size (int_bound 200) inside in
      (* duplicates, and a shorter or longer prefix over the same address *)
      let* extra =
        if base = [] then return []
        else
          list_size (int_bound 100)
            (let* p = oneofl base in
             let* len = int_range 16 32 in
             frequency [ (1, return p); (2, return (Prefix.make (Prefix.addr p) len)) ])
      in
      let* default = frequency [ (1, return [ Prefix.default ]); (9, return []) ] in
      shuffle_l (default @ base @ extra))
  in
  QCheck.make ~print:(fun ps -> String.concat "," (List.map Prefix.to_string ps)) gen

let prop_of_prefixes_matches_union =
  QCheck.Test.make ~name:"of_prefixes = reference = fold of union (clustered)" ~count:300
    arb_clustered_prefixes (fun ps ->
      let built = Prefix_set.of_prefixes ps in
      let folded =
        List.fold_left
          (fun acc p -> Prefix_set.union acc (Prefix_set.of_prefix p))
          Prefix_set.empty ps
      in
      let k_strings s = List.map Prefix.to_string (Prefix_set.to_prefixes s) in
      let r_strings = List.map Prefix.to_string (R.to_prefixes (R.of_prefixes ps)) in
      Prefix_set.equal built folded
      && k_strings built = k_strings folded
      && k_strings built = r_strings)

(* Bulk construction only hash-conses: it leaves the operation memo alone
   and allocates at most one node per bit of each prefix. *)
let test_of_prefixes_no_memo () =
  let hosts =
    List.init 5000 (fun i -> Prefix.host (Ipv4.of_int (0x0A000000 + (i * 7919))))
  in
  let s0 = Prefix_set.stats () in
  let s = Prefix_set.of_prefixes hosts in
  let s1 = Prefix_set.stats () in
  Alcotest.(check int) "no memo probes"
    (s0.Prefix_set.memo_hits + s0.Prefix_set.memo_misses)
    (s1.Prefix_set.memo_hits + s1.Prefix_set.memo_misses);
  check_bool "at most 32 nodes per host" true
    (s1.Prefix_set.nodes - s0.Prefix_set.nodes <= 32 * 5000);
  Alcotest.(check int) "every host present" 5000 (Prefix_set.count_addresses s)

(* Sets built in Pool worker domains come from foreign hashcons tables:
   after the join their node ids never match locally-built twins, so the
   structural fallback must carry equality/subset — including for fresh
   algebra whose results mix imported and local subtrees. *)
let test_set_cross_domain () =
  let specs =
    [
      [ "10.0.0.0/8"; "192.168.0.0/16" ];
      (* merges to 10.0.0.0/8 inside the worker *)
      [ "10.0.0.0/9"; "10.128.0.0/9" ];
      [ "172.16.0.0/12" ];
      [];
    ]
  in
  let build l = Prefix_set.of_prefixes (List.map pfx l) in
  let imported = Rd_util.Pool.parallel_map ~jobs:3 build specs in
  let local = List.map build specs in
  List.iter2
    (fun i l -> check_bool "imported = local" true (Prefix_set.equal i l))
    imported local;
  match imported with
  | [ a; b; _c; e ] ->
    check_bool "different sets differ" false (Prefix_set.equal a b);
    check_bool "imported empty" true (Prefix_set.is_empty e);
    check_bool "imported subset" true (Prefix_set.subset b a);
    check_bool "imported not superset" false (Prefix_set.subset a b);
    check_bool "inter of imported" true
      (Prefix_set.equal (Prefix_set.inter a b) (set [ "10.0.0.0/8" ]));
    let u = List.fold_left Prefix_set.union Prefix_set.empty imported in
    check_bool "union of imported" true
      (Prefix_set.equal u (set [ "10.0.0.0/8"; "192.168.0.0/16"; "172.16.0.0/12" ]));
    check_bool "diff of imported" true
      (Prefix_set.equal (Prefix_set.diff a b) (set [ "192.168.0.0/16" ]))
  | l -> Alcotest.failf "expected 4 imported sets, got %d" (List.length l)

let test_kernel_stats_move () =
  let s0 = Prefix_set.stats () in
  let a = set [ "10.0.0.0/8"; "192.168.0.0/16"; "172.16.0.0/12" ] in
  let b = set [ "10.64.0.0/10"; "192.168.128.0/17" ] in
  check_bool "union sane" true (Prefix_set.subset b (Prefix_set.union a b));
  let s1 = Prefix_set.stats () in
  check_bool "nodes monotone" true (s1.Prefix_set.nodes >= s0.Prefix_set.nodes);
  check_bool "misses counted" true (s1.Prefix_set.memo_misses > s0.Prefix_set.memo_misses);
  (* the exact same op again is a pure cache hit *)
  let h0 = (Prefix_set.stats ()).Prefix_set.memo_hits in
  ignore (Prefix_set.union a b);
  check_bool "repeat op hits memo" true ((Prefix_set.stats ()).Prefix_set.memo_hits > h0)

(* Hash-consing keys a node by its children's ids: rebuilding a set in
   the same domain, in any order and by bulk build or by a union fold,
   hands back the physically same node. *)
let test_kernel_shares_rebuilt_sets () =
  let ps =
    List.map pfx
      [ "10.0.0.0/8"; "10.64.3.0/24"; "172.16.0.0/12"; "192.168.7.128/25"; "198.51.100.7/32" ]
  in
  let built = Prefix_set.of_prefixes ps in
  let rebuilt = Prefix_set.of_prefixes (List.rev ps) in
  let folded =
    List.fold_left (fun acc p -> Prefix_set.union acc (Prefix_set.of_prefix p)) Prefix_set.empty ps
  in
  check_bool "bulk rebuild is the same node" true (built == rebuilt);
  check_bool "union fold is the same node" true (built == folded);
  check_bool "single prefix is the same node" true
    (Prefix_set.of_prefix (pfx "10.64.3.0/24") == Prefix_set.of_prefixes [ pfx "10.64.3.0/24" ])

(* The kernel's tables are discarded wholesale once they pass 2^20
   entries.  One fresh domain folds enough random hosts into one set to
   push both the hash-cons table and the operation memo past that, so
   both reset mid-run: sets built before the reset, the set built across
   it and sets rebuilt after it must still agree with each other and with
   the structural reference. *)
let test_kernel_tables_reset () =
  let limit = 1 lsl 20 in
  let spec = [ "10.0.0.0/9"; "10.200.0.0/16"; "172.16.4.0/22"; "192.0.2.77/32" ] in
  let other = [ "10.64.0.0/10"; "172.16.0.0/12"; "203.0.113.0/24" ] in
  let build l = Prefix_set.of_prefixes (List.map pfx l) in
  Domain.join
  @@ Domain.spawn (fun () ->
       let rng = Random.State.make [| 25 |] in
       let a = build spec and b = build other in
       let s0 = Prefix_set.stats () in
       let rec churn acc hosts =
         let s = Prefix_set.stats () in
         if s.nodes - s0.nodes > limit + 1 && s.memo_misses - s0.memo_misses > limit + 1
         then (acc, hosts)
         else begin
           let x = (Random.State.bits rng lsl 2) lor Random.State.int rng 4 in
           let h = Prefix.host (Ipv4.of_int x) in
           churn (Prefix_set.union acc (Prefix_set.of_prefix h)) (h :: hosts)
         end
       in
       let acc, hosts = churn Prefix_set.empty [] in
       let a' = build spec and b' = build other in
       check_bool "rebuilt after the reset under fresh ids" false (a == a' || b == b');
       List.iter
         (fun (x, y) ->
           check_bool "equal across the reset" true (Prefix_set.equal x y);
           check_bool "subset one way" true (Prefix_set.subset x y);
           check_bool "subset the other way" true (Prefix_set.subset y x))
         [ (a, a'); (b, b') ];
       let strings ps = List.map Prefix.to_string ps in
       let agree name k r =
         Alcotest.(check (list string)) name
           (strings (R.to_prefixes r))
           (strings (Prefix_set.to_prefixes k));
         List.iter
           (fun p ->
             let addr = Prefix.addr p in
             check_bool (name ^ " mem") (R.mem addr r) (Prefix_set.mem addr k))
           (List.filteri (fun i _ -> i mod 97 = 0) hosts @ List.map pfx (spec @ other))
       in
       let ra = R.of_prefixes (List.map pfx spec) and rb = R.of_prefixes (List.map pfx other) in
       agree "built before" a ra;
       agree "rebuilt after" a' ra;
       agree "folded across" acc (R.of_prefixes hosts);
       agree "union across" (Prefix_set.union a b') (R.union ra rb);
       agree "diff across" (Prefix_set.diff a' b) (R.diff ra rb))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rd_addr"
    [
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "reject malformed" `Quick test_ipv4_reject;
          Alcotest.test_case "octets" `Quick test_ipv4_octets;
          Alcotest.test_case "ordering and succ" `Quick test_ipv4_order;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "parse" `Quick test_prefix_parse;
          Alcotest.test_case "masks" `Quick test_prefix_masks;
          Alcotest.test_case "of_addr_mask" `Quick test_prefix_of_addr_mask;
          Alcotest.test_case "relations" `Quick test_prefix_relations;
          Alcotest.test_case "split/parent/sibling" `Quick test_prefix_structure;
          Alcotest.test_case "nth and sizes" `Quick test_prefix_nth;
        ] );
      ( "wildcard",
        [
          Alcotest.test_case "matching" `Quick test_wildcard_match;
          Alcotest.test_case "non-contiguous" `Quick test_wildcard_noncontiguous;
          Alcotest.test_case "to_prefixes" `Quick test_wildcard_to_prefixes;
          Alcotest.test_case "prefix bridge" `Quick test_wildcard_prefix_bridge;
        ]
        @ qc [ prop_wildcard_to_prefixes_exact; prop_wildcard_exact ] );
      ( "prefix_set",
        [
          Alcotest.test_case "basics" `Quick test_set_basics;
          Alcotest.test_case "canonical merge" `Quick test_set_canonical_merge;
          Alcotest.test_case "algebra" `Quick test_set_algebra;
          Alcotest.test_case "net15 intersection" `Quick test_set_net15_property;
          Alcotest.test_case "minimal decomposition" `Quick test_set_to_prefixes_minimal;
        ] );
      ( "prefix_set properties",
        qc
          [
            prop_union_commutative;
            prop_inter_idempotent;
            prop_de_morgan;
            prop_diff_disjoint;
            prop_to_prefixes_faithful;
            prop_count_matches_prefixes;
            prop_mem_union;
          ] );
      ( "prefix_set kernel",
        Alcotest.test_case "cross-domain pool sets" `Quick test_set_cross_domain
        :: Alcotest.test_case "kernel stats" `Quick test_kernel_stats_move
        :: Alcotest.test_case "rebuilt sets share nodes" `Quick test_kernel_shares_rebuilt_sets
        :: Alcotest.test_case "of_prefixes makes no memo probes" `Quick test_of_prefixes_no_memo
        :: Alcotest.test_case "tables reset past the limit" `Quick test_kernel_tables_reset
        :: qc
             [
               prop_kernel_matches_reference;
               prop_kernel_mem_matches_reference;
               prop_of_prefixes_matches_union;
             ] );
    ]
