(* Tests for rd_util: PRNG, pool, trace spans, metrics registry, JSON
   (emit + parse), SHA-1 (RFC 3174 vectors, agreement with the reference
   kernel), union-find, max-flow, statistics, CDF, tables, DOT. *)

open Rd_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --------------------------------------------------------------- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Prng.bits64 a = Prng.bits64 b)
  done

let test_prng_int_range () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in rng 5 9 in
    check_bool "in closed range" true (v >= 5 && v <= 9)
  done

let test_prng_int_uniformish () =
  let rng = Prng.create 99 in
  let counts = Array.make 10 0 in
  let n = 20000 in
  for _ = 1 to n do
    let v = Prng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool (Printf.sprintf "bucket %d near uniform (%d)" i c) true
        (c > (n / 10) - 400 && c < (n / 10) + 400))
    counts

let test_prng_helpers () =
  let rng = Prng.create 5 in
  check_bool "bernoulli 0" false (Prng.bernoulli rng 0.0);
  check_bool "bernoulli 1" true (Prng.bernoulli rng 1.0);
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 50 do
    check_bool "choice member" true (List.mem (Prng.choice rng arr) [ 1; 2; 3 ])
  done;
  check_int "weighted certain" 9 (Prng.weighted rng [ (1.0, 9) ]);
  for _ = 1 to 50 do
    check_int "weighted zero excluded" 1 (Prng.weighted rng [ (0.0, 0); (1.0, 1) ])
  done;
  let sample = Prng.sample rng 3 [ 1; 2; 3; 4; 5 ] in
  check_int "sample size" 3 (List.length sample);
  check_int "sample distinct" 3 (List.length (List.sort_uniq compare sample));
  let big = Prng.sample rng 10 [ 1; 2 ] in
  check_int "sample clipped" 2 (List.length big)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 11 in
  let a = Array.init 20 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "permutation" true (sorted = Array.init 20 (fun i -> i))

let test_prng_pareto () =
  let rng = Prng.create 13 in
  for _ = 1 to 200 do
    check_bool "pareto >= xmin" true (Prng.pareto_int rng ~alpha:1.2 ~xmin:3 >= 3)
  done

(* --------------------------------------------------------------- Pool --- *)

let test_pool_order_preserved () =
  let input = List.init 100 (fun i -> i) in
  let out = Pool.parallel_map ~jobs:4 (fun x -> x * x) input in
  Alcotest.(check (list int)) "squares in order" (List.map (fun x -> x * x) input) out

let test_pool_jobs1_equivalence () =
  let input = List.init 37 (fun i -> i) in
  let f x = (x * 7) mod 11 in
  Alcotest.(check (list int)) "jobs=1 = List.map" (List.map f input)
    (Pool.parallel_map ~jobs:1 f input);
  Alcotest.(check (list int)) "jobs=4 = List.map" (List.map f input)
    (Pool.parallel_map ~jobs:4 f input);
  Alcotest.(check (list int)) "empty list" [] (Pool.parallel_map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 9 ] (Pool.parallel_map ~jobs:4 f [ 9 ])

let test_pool_exception_propagation () =
  let boom x = if x = 13 then failwith "boom13" else x in
  Alcotest.check_raises "exception crosses domains" (Failure "boom13") (fun () ->
      ignore (Pool.parallel_map ~jobs:4 boom (List.init 50 (fun i -> i))));
  (* the pool survives the failure path and later maps still work *)
  check_int "pool usable after error" 10
    (List.length (Pool.parallel_map ~jobs:4 (fun x -> x) (List.init 10 (fun i -> i))))

exception A
exception B

let test_pool_fail_fast_deterministic () =
  (* item 9 fails first in wall-clock time, item 0 later: the re-raised
     failure is the lowest-index one on any schedule *)
  let f i =
    if i = 0 then begin
      Unix.sleepf 0.05;
      raise A
    end;
    if i = 9 then raise B;
    i
  in
  List.iter
    (fun jobs ->
      Alcotest.check_raises (Printf.sprintf "jobs=%d raises item 0's A" jobs) A (fun () ->
          ignore (Pool.parallel_map ~jobs f (List.init 10 (fun i -> i)))))
    [ 4; 1 ]

let test_pool_nested_fallback () =
  check_bool "caller is not a worker" false (Pool.in_worker ());
  let out =
    Pool.parallel_map ~jobs:2
      (fun x ->
        (* inner map runs sequentially inside a worker instead of
           deadlocking; in_worker is visible to the task *)
        let inner = Pool.parallel_map ~jobs:2 (fun y -> y + x) [ 1; 2; 3 ] in
        (Pool.in_worker (), inner))
      [ 10; 20 ]
  in
  Alcotest.(check (list (pair bool (list int))))
    "nested maps correct"
    [ (true, [ 11; 12; 13 ]); (true, [ 21; 22; 23 ]) ]
    out

let test_pool_default_jobs_env () =
  let saved = Sys.getenv_opt "RDNA_JOBS" in
  Unix.putenv "RDNA_JOBS" "3";
  check_int "RDNA_JOBS honoured" 3 (Pool.default_jobs ());
  Unix.putenv "RDNA_JOBS" "not-a-number";
  check_bool "garbage falls back to cores" true (Pool.default_jobs () >= 1);
  Unix.putenv "RDNA_JOBS" (match saved with Some s -> s | None -> "")

(* ------------------------------------------- Pool supervision / chaos --- *)

let fault_plan spec =
  match Fault.of_spec spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e

let test_pool_pickup_fault_no_deadlock () =
  (* a worker dying between task pickup and completion (the pool.pickup
     injection site) must not leave the map's all_done wait hanging: the
     fail-fast map re-raises the injected fault... *)
  (match
     Pool.parallel_map ~jobs:2 ~faults:(fault_plan "seed=1;pool.pickup:raise")
       (fun x -> x)
       (List.init 20 (fun i -> i))
   with
  | _ -> Alcotest.fail "pickup fault should abort the fail-fast map"
  | exception Fault.Injected ("pool.pickup", _) -> ());
  (* ...and the supervised map degrades every item to Error and returns *)
  let results =
    Pool.parallel_map_results ~jobs:2 ~faults:(fault_plan "seed=1;pool.pickup:raise")
      (fun x -> x)
      (List.init 20 (fun i -> i))
  in
  check_int "all items accounted for" 20 (List.length results);
  check_bool "every item failed at the pickup site" true
    (List.for_all
       (function Error (f : Pool.failure) -> f.site = Some "pool.pickup" | Ok _ -> false)
       results)

let test_pool_map_results_isolation () =
  (* one bad item degrades to Error without touching its neighbours *)
  let f x = if x mod 7 = 3 then failwith "bad item" else x * x in
  let results = Pool.parallel_map_results ~jobs:4 f (List.init 30 (fun i -> i)) in
  check_int "30 results" 30 (List.length results);
  List.iteri
    (fun i -> function
      | Ok v -> check_int "square preserved" (i * i) v
      | Error (fl : Pool.failure) ->
        check_bool "only the bad items fail" true (i mod 7 = 3);
        check_bool "failure carries the exception" true (fl.exn = Failure "bad item");
        check_bool "no site for a plain failure" true (fl.site = None))
    results

let test_pool_retry_recovers () =
  (* a fault capped at one fire per key: the first attempt on item 5
     raises, its retry completes, so every item ends Ok and the retry is
     counted *)
  let metrics = Metrics.create () in
  let faults = fault_plan "seed=3;study.network:raise:key=k5:max=1" in
  let f x =
    Fault.fault_point (Some faults) ~site:Fault.study_network ~key:(Printf.sprintf "k%d" x);
    x + 100
  in
  let results =
    Pool.parallel_map_results ~jobs:2 ~metrics ~retries:1 f (List.init 10 (fun i -> i))
  in
  check_bool "all ok after retry" true (List.for_all Result.is_ok results);
  check_bool "task.retried counted" true
    (Metrics.counter_value metrics "task.retried" = Some 1);
  check_int "fault fired exactly once" 1 (List.length (Fault.injections faults))

(* -------------------------------------------------------------- Trace --- *)

let test_trace_nesting () =
  let t = Trace.create () in
  let tr = Some t in
  let result =
    Trace.span tr "outer" (fun () ->
        Trace.span tr "inner" (fun () -> 21) + Trace.span tr "inner" (fun () -> 21))
  in
  check_int "result passes through" 42 result;
  let spans = Trace.spans t in
  check_int "three spans" 3 (List.length spans);
  let depth name =
    List.filter_map (fun (s : Trace.span) -> if s.name = name then Some s.depth else None) spans
  in
  Alcotest.(check (list int)) "outer at depth 0" [ 0 ] (depth "outer");
  Alcotest.(check (list int)) "inners at depth 1" [ 1; 1 ] (depth "inner");
  (match Trace.stage_table t with
   | [ ("inner", inner_s, 2); ("outer", outer_s, 1) ] | [ ("outer", outer_s, 1); ("inner", inner_s, 2) ] ->
     check_bool "outer covers inners" true (outer_s >= inner_s);
     check_bool "nonnegative" true (inner_s >= 0.0)
   | sts -> Alcotest.failf "unexpected stage table: %d entries" (List.length sts));
  check_bool "total sums" true (Trace.total t >= 0.0);
  check_bool "render has stages" true (String.length (Trace.render_stages t) > 0)

let test_trace_exception_safe () =
  let t = Trace.create () in
  (try ignore (Trace.span (Some t) "raising" (fun () -> failwith "x")) with Failure _ -> ());
  match Trace.spans t with
  | [ s ] -> check_string "span recorded on exception" "raising" s.name
  | _ -> Alcotest.fail "span not recorded on exception"

let test_trace_none_is_noop () =
  check_int "span on None" 7 (Trace.span None "x" (fun () -> 7));
  Trace.end_span (Trace.begin_span None "y")

let test_trace_merge_at_join () =
  (* Spans recorded inside pool worker domains must survive the pool
     join: workers flush their domain-local buffers on exit. *)
  let t = Trace.create () in
  ignore
    (Pool.parallel_map ~jobs:4
       (fun i -> Trace.span (Some t) "work" (fun () -> i))
       (List.init 64 (fun i -> i)));
  match Trace.stage_table t with
  | [ ("work", _, 64) ] -> ()
  | sts ->
    Alcotest.failf "concurrent spans lost: %s"
      (String.concat ","
         (List.map (fun (n, _, c) -> Printf.sprintf "%s=%d" n c) sts))

let test_trace_chrome_json () =
  let t = Trace.create () in
  ignore
    (Trace.span ~cat:"network"
       ~args:[ ("network", Trace.String "net1") ]
       (Some t) "analyze"
       (fun () -> Trace.span (Some t) "parse" (fun () -> 1)));
  let json = Trace.to_json t in
  (* the emitted document must be valid JSON in the trace_event shape *)
  match Json.of_string (Json.to_string json) with
  | Error e -> Alcotest.failf "emitted trace does not reparse: %s" e
  | Ok v -> (
    match Json.member "traceEvents" v with
    | Some (Json.List events) ->
      check_int "two events" 2 (List.length events);
      List.iter
        (fun ev ->
          check_bool "ph is X" true (Json.member "ph" ev = Some (Json.String "X"));
          check_bool "has ts" true (Json.member "ts" ev <> None);
          check_bool "has dur" true (Json.member "dur" ev <> None))
        events
    | _ -> Alcotest.fail "no traceEvents array")

(* ------------------------------------------------------------ Metrics --- *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  let mo = Some m in
  Metrics.incr mo "b.count";
  Metrics.incr mo ~by:41 "a.count";
  Metrics.incr mo "a.count";
  Metrics.set mo "g.value" 1.5;
  Metrics.set mo "g.value" 2.5;
  check_bool "counter_value" true (Metrics.counter_value m "a.count" = Some 42);
  check_bool "missing counter" true (Metrics.counter_value m "nope" = None);
  let s = Metrics.snapshot m in
  Alcotest.(check (list (pair string int)))
    "counters sorted" [ ("a.count", 42); ("b.count", 1) ] s.counters;
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauge last-write-wins" [ ("g.value", 2.5) ] s.gauges;
  (* one name, one kind *)
  (try
     Metrics.set mo "a.count" 1.0;
     Alcotest.fail "kind clash not detected"
   with Invalid_argument _ -> ());
  (* None registry is a no-op *)
  Metrics.incr None "x";
  Metrics.set None "x" 0.0;
  Metrics.observe None "x" 0.0

let test_metrics_histogram_bucketing () =
  let m = Metrics.create () in
  let mo = Some m in
  (* boundary values land in the bucket whose bound they equal *)
  List.iter (Metrics.observe mo "h") [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.0; 20000.0 ];
  match Metrics.find_histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check (list (pair (float 1e-9) int)))
      "bucket counts"
      (List.mapi
         (fun i b -> (b, match i with 0 -> 2 | 1 -> 2 | 2 -> 1 | 3 -> 1 | _ -> 0))
         (Array.to_list Metrics.default_buckets))
      h.buckets;
    check_int "overflow" 1 h.overflow;
    check_int "count" 7 h.count;
    check_bool "min" true (h.min = 0.5);
    check_bool "max" true (h.max = 20000.0);
    check_bool "sum" true (abs_float (h.sum -. 20017.0) < 1e-9);
    (* the buckets ladder is sorted ascending *)
    let ok = ref true in
    Array.iteri
      (fun i b -> if i > 0 then ok := !ok && b > Metrics.default_buckets.(i - 1))
      Metrics.default_buckets;
    check_bool "default ladder ascending" true !ok

let test_metrics_empty_histogram_render () =
  let m = Metrics.create () in
  check_string "no metrics" "(no metrics recorded)\n" (Metrics.render m);
  Metrics.observe (Some m) "h" 3.0;
  check_bool "render has table" true (String.length (Metrics.render m) > 0);
  (* json reparses *)
  match Json.of_string (Json.to_string (Metrics.to_json m)) with
  | Ok v -> check_bool "has histograms" true (Json.member "histograms" v <> None)
  | Error e -> Alcotest.failf "metrics json does not reparse: %s" e

let test_metrics_domain_safe () =
  let m = Metrics.create () in
  ignore
    (Pool.parallel_map ~jobs:4
       (fun i ->
         Metrics.incr (Some m) "n";
         i)
       (List.init 100 (fun i -> i)));
  check_bool "all increments" true (Metrics.counter_value m "n" = Some 100)

(* --------------------------------------------------------------- Json --- *)

let test_json_render () =
  check_string "scalars" "[null, true, false, 3, -1]"
    (Json.to_string (Json.List [ Json.Null; Json.Bool true; Json.Bool false; Json.Int 3; Json.Int (-1) ]));
  check_string "object" "{\"a\": 1, \"b\": [2.5]}"
    (Json.to_string (Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Float 2.5 ]) ]));
  check_string "escaping" "\"a\\\"b\\\\c\\n\\t\\u0001\""
    (Json.to_string (Json.String "a\"b\\c\n\t\001"));
  check_string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_string "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_file () =
  let path = Filename.temp_file "rdna_json" ".json" in
  Json.to_file path (Json.Obj [ ("x", Json.Int 7) ]);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  check_string "file contents" "{\"x\": 7}" line

let test_json_parse_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
        ("n", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("s", Json.String "a\"b\\c\n\t");
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> check_bool "round trip" true (v = v')
  | Error e -> Alcotest.failf "round trip failed: %s" e

let test_json_parse_details () =
  check_bool "int stays int" true (Json.of_string "17" = Ok (Json.Int 17));
  check_bool "exponent is float" true (Json.of_string "1e2" = Ok (Json.Float 100.0));
  check_bool "fraction is float" true (Json.of_string "0.5" = Ok (Json.Float 0.5));
  check_bool "whitespace ok" true
    (Json.of_string " [ 1 , 2 ] " = Ok (Json.List [ Json.Int 1; Json.Int 2 ]));
  check_bool "unicode escape" true (Json.of_string "\"\\u0041\"" = Ok (Json.String "A"));
  check_bool "surrogate pair" true
    (Json.of_string "\"\\ud83d\\ude00\"" = Ok (Json.String "\xf0\x9f\x98\x80"));
  check_bool "member hit" true
    (Json.member "a" (Json.Obj [ ("a", Json.Int 1) ]) = Some (Json.Int 1));
  check_bool "member miss" true (Json.member "b" (Json.Obj [ ("a", Json.Int 1) ]) = None);
  check_bool "member non-object" true (Json.member "a" (Json.Int 1) = None)

let test_json_parse_errors () =
  let is_error s =
    match Json.of_string s with Error _ -> true | Ok _ -> false
  in
  check_bool "empty input" true (is_error "");
  check_bool "trailing garbage" true (is_error "1 2");
  check_bool "bad literal" true (is_error "tru");
  check_bool "unterminated string" true (is_error "\"abc");
  check_bool "missing colon" true (is_error "{\"a\" 1}");
  check_bool "unpaired surrogate" true (is_error "\"\\ud83d\"");
  check_bool "error carries offset" true
    (match Json.of_string "[1,]" with
     | Error e -> String.length e > 0 && String.sub e 0 9 = "at offset"
     | Ok _ -> false)

(* --------------------------------------------------------------- Sha1 --- *)

(* RFC 3174 test vectors *)
let test_sha1_vectors () =
  let cases =
    [
      ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
      ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
      ("a", "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8");
      ( String.concat "" (List.init 80 (fun _ -> "01234567")),
        "dea356a2cddd90c7a7ecedc5ebb563934f460452" );
    ]
  in
  List.iter
    (fun (input, expect) -> check_string ("sha1 of " ^ String.sub input 0 (min 10 (String.length input))) expect (Sha1.hex_of_string input))
    cases

let test_sha1_lengths () =
  (* exercise every padding branch: lengths around the 55/56/64 boundaries *)
  List.iter
    (fun len ->
      let s = String.make len 'x' in
      let d = Sha1.digest_string s in
      check_int (Printf.sprintf "digest length for %d" len) 20 (String.length d);
      (* digest must differ from the digest of a string one byte longer *)
      check_bool "distinct" true (d <> Sha1.digest_string (s ^ "x")))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 128; 1000 ]

let test_sha1_prf () =
  let a = Sha1.prf ~key:"k1" "data" in
  check_bool "deterministic" true (a = Sha1.prf ~key:"k1" "data");
  check_bool "key matters" true (a <> Sha1.prf ~key:"k2" "data");
  check_bool "data matters" true (a <> Sha1.prf ~key:"k1" "data2")

(* The straight-line kernel against the round-by-round reference
   ([Sha1_ref]).  Lengths lean on the padding edges: 55 is the longest
   tail that leaves room for the length in the same block, 56 and 120
   need a second tail block, 64 and 128 end on a block boundary. *)
let arb_bytes len_gen =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%d bytes %S" (String.length s) s)
    QCheck.Gen.(len_gen >>= fun n -> string_size ~gen:char (return n))

let prop_sha1_digest_ref =
  QCheck.Test.make ~name:"digest_string = reference digest" ~count:300
    (arb_bytes
       QCheck.Gen.(
         frequency
           [ (3, oneofl [ 0; 55; 56; 63; 64; 119; 120; 128 ]); (1, int_range 0 300) ]))
    (fun s ->
      Sha1.digest_string s = Sha1_ref.digest_string s
      && Sha1.hex_of_string s = Sha1_ref.hex_of_string s)

let test_sha1_large_ref () =
  let rng = Prng.create 3174 in
  let s = String.init ((64 * 1024) + 37) (fun _ -> Char.chr (Prng.int rng 256)) in
  check_string "64 KiB + 37 bytes" (Sha1_ref.hex_of_string s) (Sha1.hex_of_string s)

(* [prf]'s message, key, 0x00 and data, pads into one block up to 55
   bytes and into two past that; key and data lengths cluster around
   that limit. *)
let prop_sha1_prf_ref =
  let gen =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            int_range 0 56 >>= fun kl ->
            int_range (-2) 2 >>= fun delta -> return (kl, max 0 (54 - kl + delta)) );
          (1, pair (int_range 0 80) (int_range 0 80));
        ]
      >>= fun (kl, dl) -> pair (string_size ~gen:char (return kl)) (string_size ~gen:char (return dl)))
  in
  QCheck.Test.make ~name:"prf = reference prf" ~count:300
    (QCheck.make ~print:(fun (k, d) -> Printf.sprintf "key %S data %S" k d) gen)
    (fun (key, data) -> Sha1.prf ~key data = Sha1_ref.prf ~key data)

let prop_sha1_to_hex_ref =
  QCheck.Test.make ~name:"to_hex = reference to_hex" ~count:200
    (arb_bytes QCheck.Gen.(int_range 0 64))
    (fun s -> Sha1.to_hex s = Sha1_ref.to_hex s)

(* --------------------------------------------------------- Union_find --- *)

let uf_same uf a b = Union_find.find uf a = Union_find.find uf b
let uf_sets uf n = List.length (List.sort_uniq compare (List.init n (Union_find.find uf)))

let test_uf_basic () =
  let uf = Union_find.create 10 in
  check_int "initial sets" 10 (uf_sets uf 10);
  Union_find.union uf 0 1;
  Union_find.union uf 1 2;
  check_bool "same" true (uf_same uf 0 2);
  check_bool "not same" false (uf_same uf 0 3);
  check_int "sets after" 8 (uf_sets uf 10);
  Union_find.union uf 0 2;
  check_int "idempotent union" 8 (uf_sets uf 10)

let test_uf_groups () =
  let uf = Union_find.create 6 in
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  Union_find.union uf 3 4;
  let groups = Union_find.groups uf in
  check_int "group count" 3 (Hashtbl.length groups);
  let sizes =
    Hashtbl.fold (fun _ members acc -> List.length members :: acc) groups []
    |> List.sort compare
  in
  Alcotest.(check (list int)) "group sizes" [ 1; 2; 3 ] sizes

let prop_uf_transitive =
  QCheck.Test.make ~name:"union-find transitivity" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_bound 30)
       (QCheck.pair (QCheck.int_bound 19) (QCheck.int_bound 19)))
    (fun unions ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> Union_find.union uf a b) unions;
      (* every union joins its pair, through any chain of unions *)
      List.for_all (fun (a, b) -> uf_same uf a b) unions)

(* ------------------------------------------------------------ Maxflow --- *)

let test_maxflow_simple () =
  let g = Maxflow.create 4 in
  Maxflow.add_edge g 0 1 3;
  Maxflow.add_edge g 0 2 2;
  Maxflow.add_edge g 1 3 2;
  Maxflow.add_edge g 2 3 3;
  Maxflow.add_edge g 1 2 5;
  check_int "flow" 5 (Maxflow.max_flow g ~source:0 ~sink:3)

let test_maxflow_disconnected () =
  let g = Maxflow.create 4 in
  Maxflow.add_edge g 0 1 5;
  Maxflow.add_edge g 2 3 5;
  check_int "no path" 0 (Maxflow.max_flow g ~source:0 ~sink:3)

let test_min_vertex_cut_set () =
  (* two cliques joined through routers 4 and 5; several minimising sets
     exist ({4,5}, {0,1}, {2,3}) so verify the returned set by removal *)
  let edges =
    [ (0, 1); (0, 4); (1, 4); (0, 5); (1, 5); (2, 3); (2, 4); (3, 4); (2, 5); (3, 5) ]
  in
  let sources = [ 0; 1 ] and sinks = [ 2; 3 ] in
  let value, cut = Maxflow.min_vertex_cut_set ~n:6 ~edges ~sources ~sinks in
  check_int "cut value" 2 value;
  check_int "cut size matches value" 2 (List.length cut);
  (* removing the cut disconnects surviving sources from surviving sinks *)
  let alive v = not (List.mem v cut) in
  let adj v =
    List.filter_map
      (fun (a, b) ->
        if a = v && alive b then Some b else if b = v && alive a then Some a else None)
      edges
  in
  let visited = Hashtbl.create 8 in
  let rec go = function
    | [] -> false
    | v :: rest ->
      if List.mem v sinks then true
      else if Hashtbl.mem visited v then go rest
      else begin
        Hashtbl.replace visited v ();
        go (adj v @ rest)
      end
  in
  check_bool "cut disconnects" false (go (List.filter alive sources))

let test_min_vertex_cut_shared_member () =
  (* a vertex in both source and sink sets is itself a unit-cost path *)
  let value, cut = Maxflow.min_vertex_cut_set ~n:3 ~edges:[] ~sources:[ 0 ] ~sinks:[ 0 ] in
  check_int "shared member" 1 value;
  Alcotest.(check (list int)) "cut is the shared vertex" [ 0 ] cut

let prop_mincut_vs_bruteforce =
  (* For small random graphs, compare against brute-force removal. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 4 7 in
      let* edges =
        list_size (int_bound 10)
          (let* a = int_bound (n - 1) in
           let* b = int_bound (n - 1) in
           return (a, b))
      in
      return (n, List.filter (fun (a, b) -> a <> b) edges))
  in
  QCheck.Test.make ~name:"min_vertex_cut_set matches brute force" ~count:60
    (QCheck.make ~print:(fun (n, e) ->
         Printf.sprintf "n=%d edges=%s" n
           (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) e)))
       gen)
    (fun (n, edges) ->
      let sources = [ 0 ] and sinks = [ n - 1 ] in
      let reachable removed =
        (* BFS from surviving sources to surviving sinks *)
        let alive v = not (List.mem v removed) in
        let adj v =
          List.filter_map
            (fun (a, b) ->
              if a = v && alive b then Some b else if b = v && alive a then Some a else None)
            edges
        in
        let visited = Hashtbl.create 8 in
        let rec go = function
          | [] -> false
          | v :: rest ->
            if List.mem v sinks then true
            else if Hashtbl.mem visited v then go rest
            else begin
              Hashtbl.replace visited v ();
              go (adj v @ rest)
            end
        in
        go (List.filter alive sources)
      in
      (* brute force: smallest subset of vertices whose removal kills all paths *)
      let rec subsets k vs =
        if k = 0 then [ [] ]
        else
          match vs with
          | [] -> []
          | v :: rest ->
            List.map (fun s -> v :: s) (subsets (k - 1) rest) @ subsets k rest
      in
      let vertices = List.init n (fun i -> i) in
      let rec brute k =
        if k > n then n
        else if List.exists (fun s -> not (reachable s)) (subsets k vertices) then k
        else brute (k + 1)
      in
      let expected = brute 0 in
      let value, _ = Maxflow.min_vertex_cut_set ~n ~edges ~sources ~sinks in
      value = expected)

(* --------------------------------------------------------------- Stat --- *)

let test_stat () =
  check_bool "mean" true (abs_float (Stat.mean [ 1.0; 2.0; 3.0 ] -. 2.0) < 1e-9);
  check_bool "mean empty" true (Stat.mean [] = 0.0);
  check_bool "median odd" true (Stat.median [ 5.0; 1.0; 3.0 ] = 3.0);
  check_bool "median even" true (Stat.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  check_bool "p100" true (Stat.percentile 100.0 [ 1.0; 9.0; 5.0 ] = 9.0);
  check_bool "p1" true (Stat.percentile 1.0 [ 1.0; 9.0; 5.0 ] = 1.0);
  check_int "imin" 1 (Stat.imin [ 3; 1; 2 ]);
  check_int "imax" 3 (Stat.imax [ 3; 1; 2 ]);
  let h = Stat.histogram ~edges:[ 10.0; 20.0 ] [ 5.0; 10.0; 15.0; 25.0 ] in
  Alcotest.(check (array int)) "histogram" [| 2; 1; 1 |] h

(* ---------------------------------------------------------------- Cdf --- *)

let test_cdf () =
  let c = Cdf.of_samples [ 1.0; 2.0; 3.0; 4.0 ] in
  check_bool "eval mid" true (Cdf.eval c 2.0 = 0.5);
  check_bool "eval below" true (Cdf.eval c 0.5 = 0.0);
  check_bool "eval above" true (Cdf.eval c 10.0 = 1.0);
  check_int "size" 4 (Cdf.size c);
  check_bool "empty" true (Cdf.eval (Cdf.of_samples []) 1.0 = 0.0);
  (* plots render without exceptions and contain axes *)
  check_bool "plot nonempty" true (String.length (Cdf.plot c) > 0)

(* -------------------------------------------------------------- Table --- *)

let test_table () =
  let out = Table.render ~headers:[ "a"; "b" ] [ [ "xx"; "1" ]; [ "y"; "22" ] ] in
  check_bool "has header" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  check_int "line count" 5 (List.length lines);
  (* all non-empty lines align to the same width *)
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  check_bool "aligned" true (List.length (List.sort_uniq compare widths) <= 2);
  let right = Table.render ~aligns:[ Table.Right ] [ [ "1" ]; [ "22" ] ] in
  check_bool "right aligned" true (String.sub right 0 2 = " 1")

(* ---------------------------------------------------------------- Dot --- *)

let test_dot () =
  let g = Dot.create "g" in
  Dot.node g ~label:"Node A" ~shape:"box" "a";
  Dot.node g "b";
  Dot.edge g ~label:"x" "a" "b";
  Dot.subgraph g ~label:"cluster" "c1" [ "a" ];
  let s = Dot.to_string g in
  check_bool "digraph" true (String.length s > 0 && String.sub s 0 7 = "digraph");
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length s
      && (String.sub s i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_bool "node a" true (contains "\"a\" [label=\"Node A\", shape=\"box\"]");
  check_bool "edge" true (contains "\"a\" -> \"b\"");
  check_bool "cluster" true (contains "cluster_c1")

(* ---------------------------------------------------------------- cache --- *)

(* Store entry file names are [Cache.hex] of these keys, so a key that
   drifted would orphan every existing checkpoint store.  Pinned from the
   round-by-round kernel: one single-block and one two-block message. *)
let test_cache_key_pinned () =
  check_string "parse key" "5ac0dda02967c106f3f51212575b59a7977b7e47"
    (Cache.hex (Cache.key ~stage:"parse" ~version:3 [ "r1.cfg"; "hostname r1\n"; "" ]));
  check_string "analysis key" "5a2c701476a9b9ca8990a2d4fde74c0f24e6bc8b"
    (Cache.hex (Cache.key ~stage:"analysis" ~version:1 [ String.make 100 'x' ]))

let test_cache_key_determinism () =
  let k1 = Cache.key ~stage:"parse" ~version:1 [ "file"; "bytes" ] in
  let k2 = Cache.key ~stage:"parse" ~version:1 [ "file"; "bytes" ] in
  check_string "same inputs, same key" (Cache.hex k1) (Cache.hex k2);
  check_int "40 hex chars" 40 (String.length (Cache.hex k1));
  let different =
    [
      Cache.key ~stage:"parse" ~version:2 [ "file"; "bytes" ];
      Cache.key ~stage:"analysis" ~version:1 [ "file"; "bytes" ];
      Cache.key ~stage:"parse" ~version:1 [ "fileb"; "ytes" ];
      Cache.key ~stage:"parse" ~version:1 [ "file"; "bytes"; "" ];
      Cache.key ~stage:"parse" ~version:1 [ "filebytes" ];
    ]
  in
  List.iteri
    (fun i k ->
      check_bool (Printf.sprintf "variant %d differs" i) false (Cache.hex k = Cache.hex k1))
    different

let test_cache_hit_after_miss () =
  let c = Cache.create ~name:"t" () in
  let k = Cache.key ~stage:"s" ~version:1 [ "x" ] in
  check_bool "initially absent" true (Cache.find c k = None);
  let computed = ref 0 in
  let v = Cache.find_or_add c k (fun () -> incr computed; 42) in
  check_int "computed" 42 v;
  let v2 = Cache.find_or_add c k (fun () -> incr computed; 43) in
  check_int "hit returns cached" 42 v2;
  check_int "computed once" 1 !computed;
  let s = Cache.stats c in
  (* find (miss) + find_or_add's inner finds: one more miss, then a hit *)
  check_int "hits" 1 s.hits;
  check_int "misses" 2 s.misses;
  check_int "length" 1 (Cache.length c)

let test_cache_invalidate_and_clear () =
  let c = Cache.create ~name:"t" () in
  let k1 = Cache.key ~stage:"s" ~version:1 [ "a" ] in
  let k2 = Cache.key ~stage:"s" ~version:1 [ "b" ] in
  Cache.add c k1 "one";
  Cache.add c k2 "two";
  Cache.invalidate c k1;
  check_bool "k1 gone" true (Cache.find c k1 = None);
  check_bool "k2 survives" true (Cache.find c k2 = Some "two");
  Cache.invalidate c k1;
  (* idempotent: a second invalidation of an absent key counts nothing *)
  check_int "one invalidation" 1 (Cache.stats c).invalidations;
  Cache.clear c;
  check_int "empty" 0 (Cache.length c);
  check_int "clear counts the dropped entry" 2 (Cache.stats c).invalidations

let test_cache_eviction_bounds_memory () =
  let c = Cache.create ~capacity:4 ~name:"t" () in
  for i = 1 to 10 do
    Cache.add c (Cache.key ~stage:"s" ~version:1 [ string_of_int i ]) i
  done;
  check_bool "bounded" true (Cache.length c <= 4);
  check_bool "evictions counted" true ((Cache.stats c).evictions > 0);
  (* replacing an existing key at capacity must not evict *)
  let c2 = Cache.create ~capacity:2 ~name:"t2" () in
  let k = Cache.key ~stage:"s" ~version:1 [ "k" ] in
  Cache.add c2 k 1;
  Cache.add c2 (Cache.key ~stage:"s" ~version:1 [ "l" ]) 2;
  Cache.add c2 k 3;
  check_int "no eviction on replace" 0 (Cache.stats c2).evictions;
  check_bool "replaced" true (Cache.find c2 k = Some 3)

let test_cache_metrics_and_trace () =
  let m = Metrics.create () in
  let tr = Trace.create () in
  let c = Cache.create ~name:"probe" () in
  let k = Cache.key ~stage:"s" ~version:1 [ "x" ] in
  ignore (Cache.find_or_add ~metrics:m ~trace:tr c k (fun () -> 1));
  ignore (Cache.find_or_add ~metrics:m ~trace:tr c k (fun () -> 2));
  Cache.invalidate c k;
  let counter name = Option.value ~default:0 (Metrics.counter_value m name) in
  check_int "hit counter" 1 (counter "cache.probe.hits");
  check_int "miss counter" 1 (counter "cache.probe.misses");
  check_int "invalidation counted" 1 (Cache.stats c).invalidations;
  check_bool "miss span recorded" true
    (List.exists (fun (s : Trace.span) -> s.name = "cache.miss") (Trace.spans tr))

(* ------------------------------------------------------------- Cancel --- *)

(* Busy-wait on the tracer's wall clock: the test harness links no unix
   stub of its own, and the waits are a few tens of milliseconds. *)
let wait_until t =
  while Trace.now () < t do
    ignore (Sys.opaque_identity ())
  done

let test_cancel_latch_and_check () =
  let t = Cancel.create () in
  check_bool "live" false (Cancel.cancelled (Some t));
  Cancel.check ~site:"s" (Some t);
  (* a None token is never cancelled *)
  check_bool "None never cancels" false (Cancel.cancelled None);
  Cancel.check ~site:"s" None;
  Cancel.cancel ~reason:"SIGINT" t;
  check_bool "tripped" true (Cancel.cancelled (Some t));
  (match Cancel.status t with
   | Some (Cancel.Stopped "SIGINT") -> ()
   | _ -> Alcotest.fail "expected Stopped SIGINT");
  (* idempotent: the first reason sticks *)
  Cancel.cancel ~reason:"second" t;
  (match Cancel.status t with
   | Some (Cancel.Stopped "SIGINT") -> ()
   | _ -> Alcotest.fail "first cancellation must win");
  match Cancel.check ~site:"here" (Some t) with
  | () -> Alcotest.fail "check must raise once cancelled"
  | exception Cancel.Cancelled { site; reason = Cancel.Stopped "SIGINT" } ->
    check_string "poll site" "here" site
  | exception _ -> Alcotest.fail "wrong exception"

let test_cancel_deadline_expires () =
  let t = Cancel.create ~deadline:0.05 () in
  check_bool "live before expiry" false (Cancel.cancelled (Some t));
  wait_until (Trace.now () +. 0.06);
  check_bool "expired" true (Cancel.cancelled (Some t));
  match Cancel.status t with
  | Some (Cancel.Deadline b) -> check_bool "budget recorded" true (b > 0.0)
  | _ -> Alcotest.fail "expected Deadline"

let test_cancel_child_inherits () =
  (* parent cancellation reaches the child; child cancellation stays local *)
  let p = Cancel.create () in
  let c = Cancel.child p in
  Cancel.cancel ~reason:"stop" p;
  check_bool "child sees parent cancel" true (Cancel.cancelled (Some c));
  let p2 = Cancel.create () in
  let c2 = Cancel.child p2 in
  Cancel.cancel c2;
  check_bool "child tripped" true (Cancel.cancelled (Some c2));
  check_bool "parent unaffected" false (Cancel.cancelled (Some p2));
  (* the child's effective deadline is the tighter of child and parent *)
  let p3 = Cancel.create ~deadline:60.0 () in
  let c3 = Cancel.child ~deadline:0.05 p3 in
  wait_until (Trace.now () +. 0.06);
  check_bool "child expired" true (Cancel.cancelled (Some c3));
  check_bool "parent still live" false (Cancel.cancelled (Some p3))

let test_cancel_task_token () =
  (* neither a run token nor a timeout: nothing to poll *)
  check_bool "no token" true (Cancel.task None = None);
  (* a child of the run token: the run's stop reaches it *)
  let run = Cancel.create () in
  (match Cancel.task (Some run) with
   | None -> Alcotest.fail "a run token must yield a task token"
   | Some t ->
     Cancel.cancel ~reason:"SIGINT" run;
     check_bool "run stop reaches the task" true (Cancel.cancelled (Some t)));
  (* the timeout trips the task alone *)
  let run = Cancel.create () in
  (match Cancel.task ~timeout:0.05 (Some run) with
   | None -> Alcotest.fail "a timeout must yield a task token"
   | Some t ->
     wait_until (Trace.now () +. 0.06);
     check_bool "task timed out" true (Cancel.cancelled (Some t));
     check_bool "run still live" false (Cancel.cancelled (Some run)));
  (* a timeout without a run token still bounds the task *)
  match Cancel.task ~timeout:60.0 None with
  | None -> Alcotest.fail "a timeout must yield a task token"
  | Some t -> check_bool "live" false (Cancel.cancelled (Some t))

(* -------------------------------------------------------------- Store --- *)

let with_store_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rd-store-test-%d" (Hashtbl.hash (Trace.now ())))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let store_key part = Cache.raw (Cache.key ~stage:"test" ~version:1 [ part ])

let test_store_roundtrip () =
  with_store_dir @@ fun dir ->
  let s = Store.open_dir dir in
  let k = store_key "a" in
  check_bool "absent" true (Store.find s k = None);
  let payload = "binary \x00 payload\nwith newlines" in
  Store.add s k payload;
  check_bool "found verbatim" true (Store.find s k = Some payload);
  check_bool "other key absent" true (Store.find s (store_key "b") = None);
  (* overwrite is atomic and wins *)
  Store.add s k "second";
  check_bool "overwritten" true (Store.find s k = Some "second");
  (* durability: a fresh handle on the same directory sees the entry *)
  let s2 = Store.open_dir dir in
  check_bool "persists across open" true (Store.find s2 k = Some "second");
  (* no temp droppings: every file in the directory is a named entry *)
  Array.iter
    (fun f -> check_bool "only .entry files" true (Filename.check_suffix f ".entry"))
    (Sys.readdir dir);
  let st = Store.stats s in
  check_int "writes" 2 st.writes;
  check_bool "misses counted" true (st.misses >= 2);
  check_bool "hits counted" true (st.hits >= 2);
  check_int "nothing corrupt" 0 st.corrupt

let test_store_corruption_is_a_miss () =
  with_store_dir @@ fun dir ->
  let metrics = Metrics.create () in
  let s = Store.open_dir ~metrics dir in
  let k = store_key "victim" and k2 = store_key "intact" in
  Store.add s k "precious result";
  Store.add s k2 "other result";
  (* truncate the entry mid-frame *)
  let path = Store.entry_path s k in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full / 2)));
  check_bool "truncated entry is a miss" true (Store.find s k = None);
  (* flip a payload byte: framed digest catches silent corruption *)
  let flipped = Bytes.of_string full in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc flipped);
  check_bool "bit-flipped entry is a miss" true (Store.find s k = None);
  (* garbage that is not even a frame *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "garbage");
  check_bool "garbage is a miss" true (Store.find s k = None);
  let st = Store.stats s in
  check_int "three corrupt reads" 3 st.corrupt;
  check_bool "corrupt counted as misses" true (st.misses >= 3);
  check_bool "store.corrupt metric" true
    (Metrics.counter_value metrics "store.corrupt" = Some 3);
  (* the sibling entry is untouched *)
  check_bool "intact neighbour still reads" true (Store.find s k2 = Some "other result");
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "render mentions corrupt" true
    (contains ~needle:"corrupt" (Store.render_stats s))

(* ---------------------------------------------------- Pool: cancellation --- *)

let test_pool_cancelled_items_time_out () =
  let tok = Cancel.create () in
  Cancel.cancel ~reason:"SIGINT" tok;
  let ran = Atomic.make 0 in
  let results =
    Pool.parallel_map_results ~jobs:2 ~cancel:tok ~retries:3
      (fun x -> Atomic.incr ran; x)
      [ 1; 2; 3 ]
  in
  check_int "no task body ran" 0 (Atomic.get ran);
  List.iter
    (function
      | Ok _ -> Alcotest.fail "cancelled items must not succeed"
      | Error (f : Pool.failure) ->
        (match f.cause with
         | Pool.Timed_out (Cancel.Stopped "SIGINT") -> ()
         | _ -> Alcotest.fail "expected Timed_out (Stopped SIGINT)");
        check_bool "queued-poll site" true (f.site = Some "pool.queued");
        check_int "never retried" 1 f.attempts;
        check_bool "elapsed recorded" true (f.elapsed >= 0.0))
    results

(* ---------------------------------------------- Cache: eviction policy --- *)

let ckey i = Cache.key ~stage:"sc" ~version:1 [ string_of_int i ]

let test_cache_second_chance_cold_tail_pays () =
  (* capacity 8, target 4.  Walk the cache into a state with exactly
     four cold entries (survivors of a previous sweep, untouched since)
     and four hot ones; the next overflow must evict precisely the cold
     tail. *)
  let c = Cache.create ~capacity:8 ~name:"sc" () in
  for i = 1 to 8 do Cache.add c (ckey i) i done;
  (* sweep #1: all hot, halves arbitrarily; k9 inserted hot *)
  Cache.add c (ckey 9) 9;
  for i = 10 to 12 do Cache.add c (ckey i) i done;
  (* sweep #2: the four pre-sweep survivors are cold and evicted; the
     four recent inserts 9-12 survive, demoted to cold *)
  Cache.add c (ckey 13) 13;
  for i = 14 to 16 do Cache.add c (ckey i) i done;
  (* now cold = {9..12}, hot = {13..16}: sweep #3 must keep every hot
     entry and drop every cold one *)
  Cache.add c (ckey 17) 17;
  for i = 13 to 17 do
    check_bool (Printf.sprintf "hot k%d survives" i) true (Cache.find c (ckey i) = Some i)
  done;
  for i = 9 to 12 do
    check_bool (Printf.sprintf "cold k%d evicted" i) true (Cache.find c (ckey i) = None)
  done

let test_cache_second_chance_warm_hit_rate () =
  (* a warm working set re-found on every iteration keeps hitting while
     a stream of cold inserts overflows the table around it *)
  let c = Cache.create ~capacity:16 ~name:"warm" () in
  let warm = [ 10_001; 10_002; 10_003; 10_004 ] in
  List.iter (fun i -> Cache.add c (ckey i) i) warm;
  let hits = ref 0 and probes = ref 0 in
  for i = 1 to 200 do
    List.iter
      (fun w ->
        incr probes;
        match Cache.find c (ckey w) with
        | Some v -> check_int "value intact" w v; incr hits
        | None -> Cache.add c (ckey w) w)
      warm;
    Cache.add c (ckey i) i
  done;
  let rate = float_of_int !hits /. float_of_int !probes in
  check_bool
    (Printf.sprintf "warm hit rate %.2f stays high under cold churn" rate)
    true (rate >= 0.9)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rd_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "int ranges" `Quick test_prng_int_range;
          Alcotest.test_case "roughly uniform" `Quick test_prng_int_uniformish;
          Alcotest.test_case "helpers" `Quick test_prng_helpers;
          Alcotest.test_case "shuffle is permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "pareto" `Quick test_prng_pareto;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order_preserved;
          Alcotest.test_case "jobs=1 and jobs=4 equivalence" `Quick test_pool_jobs1_equivalence;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
          Alcotest.test_case "fail-fast is deterministic" `Quick
            test_pool_fail_fast_deterministic;
          Alcotest.test_case "nested fallback" `Quick test_pool_nested_fallback;
          Alcotest.test_case "RDNA_JOBS env" `Quick test_pool_default_jobs_env;
          Alcotest.test_case "pickup fault no deadlock" `Quick
            test_pool_pickup_fault_no_deadlock;
          Alcotest.test_case "map_results isolation" `Quick test_pool_map_results_isolation;
          Alcotest.test_case "retry recovers" `Quick test_pool_retry_recovers;
          Alcotest.test_case "cancelled items time out" `Quick
            test_pool_cancelled_items_time_out;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "latch and check" `Quick test_cancel_latch_and_check;
          Alcotest.test_case "deadline expires" `Quick test_cancel_deadline_expires;
          Alcotest.test_case "child inherits" `Quick test_cancel_child_inherits;
          Alcotest.test_case "task token" `Quick test_cancel_task_token;
        ] );
      ( "store",
        [
          Alcotest.test_case "round trip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption is a miss" `Quick test_store_corruption_is_a_miss;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_trace_nesting;
          Alcotest.test_case "exception safety" `Quick test_trace_exception_safe;
          Alcotest.test_case "None is a no-op" `Quick test_trace_none_is_noop;
          Alcotest.test_case "merge at pool join" `Quick test_trace_merge_at_join;
          Alcotest.test_case "chrome trace json" `Quick test_trace_chrome_json;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_gauges;
          Alcotest.test_case "histogram bucketing" `Quick test_metrics_histogram_bucketing;
          Alcotest.test_case "render and json" `Quick test_metrics_empty_histogram_render;
          Alcotest.test_case "domain safety" `Quick test_metrics_domain_safe;
        ] );
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_render;
          Alcotest.test_case "file output" `Quick test_json_file;
          Alcotest.test_case "parse round trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse details" `Quick test_json_parse_details;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "sha1",
        [
          Alcotest.test_case "rfc3174 vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "padding boundaries" `Quick test_sha1_lengths;
          Alcotest.test_case "prf" `Quick test_sha1_prf;
          Alcotest.test_case "64 KiB input = reference" `Quick test_sha1_large_ref;
        ]
        @ qc [ prop_sha1_digest_ref; prop_sha1_prf_ref; prop_sha1_to_hex_ref ] );
      ( "union_find",
        Alcotest.test_case "basics" `Quick test_uf_basic
        :: Alcotest.test_case "groups" `Quick test_uf_groups
        :: qc [ prop_uf_transitive ] );
      ( "maxflow",
        Alcotest.test_case "simple network" `Quick test_maxflow_simple
        :: Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected
        :: Alcotest.test_case "cut set" `Quick test_min_vertex_cut_set
        :: Alcotest.test_case "shared source/sink member" `Quick test_min_vertex_cut_shared_member
        :: qc [ prop_mincut_vs_bruteforce ] );
      ("stat", [ Alcotest.test_case "summary statistics" `Quick test_stat ]);
      ("cdf", [ Alcotest.test_case "evaluation and plotting" `Quick test_cdf ]);
      ("table", [ Alcotest.test_case "rendering" `Quick test_table ]);
      ("dot", [ Alcotest.test_case "emission" `Quick test_dot ]);
      ( "cache",
        [
          Alcotest.test_case "key determinism" `Quick test_cache_key_determinism;
          Alcotest.test_case "keys pinned" `Quick test_cache_key_pinned;
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "invalidate and clear" `Quick test_cache_invalidate_and_clear;
          Alcotest.test_case "eviction bounds memory" `Quick test_cache_eviction_bounds_memory;
          Alcotest.test_case "metrics and trace wiring" `Quick test_cache_metrics_and_trace;
          Alcotest.test_case "second chance: cold tail pays" `Quick
            test_cache_second_chance_cold_tail_pays;
          Alcotest.test_case "second chance: warm hit rate" `Quick
            test_cache_second_chance_warm_hit_rate;
        ] );
    ]
