(* Seeded fault injection.

   Decisions hash (seed, clause index, site, key, nth-call-for-that-
   site-and-key) through FNV-1a + a splitmix64 finalizer, so they depend
   only on the plan and the logical work item — not on domain scheduling.
   All mutable state (per-clause call/fire counters, the fire log) lives
   behind one mutex so fault points are safe from pool workers. *)

type kind = Raise | Delay of float | Corrupt

exception Injected of string * string option

let () =
  Printexc.register_printer (function
    | Injected (site, None) -> Some (Printf.sprintf "injected fault at %s" site)
    | Injected (site, Some key) -> Some (Printf.sprintf "injected fault at %s [%s]" site key)
    | _ -> None)

type clause = {
  c_site : string;
  c_kind : kind;
  c_key : string option;
  c_p : float;
  c_max : int option;
}

type injection = { i_site : string; i_key : string option; i_kind : kind }

type t = {
  seed : int;
  clauses : clause array;
  mutex : Mutex.t;
  calls : (int * string, int) Hashtbl.t; (* (clause, key) -> matching calls *)
  fired : (int * string, int) Hashtbl.t; (* (clause, key) -> fires *)
  mutable log : injection list; (* newest first *)
  mutable metrics : Metrics.t option;
}

let seed t = t.seed

let set_metrics t m = Mutex.protect t.mutex (fun () -> t.metrics <- m)

(* -------------------------------------------------------------- sites --- *)

let study_network = "study.network"
let crosscheck_network = "crosscheck.network"
let parse_file = "parse.file"
let parse_bytes = "parse.bytes"
let pool_pickup = "pool.pickup"
let propagate_fixpoint = "propagate.fixpoint"
let analysis_site stage = "analysis." ^ stage

let sites =
  [ study_network; crosscheck_network; parse_file; parse_bytes ]
  @ List.map analysis_site [ "topology"; "catalog"; "instance-graph"; "blocks"; "filter-stats" ]
  @ [ pool_pickup; propagate_fixpoint ]

let site_matches ~clause_site ~site =
  String.equal clause_site site
  || String.starts_with ~prefix:(clause_site ^ ".") site

(* ------------------------------------------------------- spec parsing --- *)

let parse_clause part =
  match String.split_on_char ':' part with
  | [] | [ "" ] -> Error (Printf.sprintf "fault clause %S: empty" part)
  | site :: fields when site <> "" ->
    let kind = ref None and key = ref None and p = ref 1.0 and max_fires = ref None in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
    let set_kind k =
      match !kind with
      | None -> kind := Some k
      | Some _ -> fail "fault clause %S: more than one kind" part
    in
    List.iter
      (fun field ->
        match String.index_opt field '=' with
        | None when field = "raise" -> set_kind Raise
        | None when field = "corrupt" -> set_kind Corrupt
        | None -> fail "fault clause %S: unknown field %S" part field
        | Some i -> (
          let name = String.sub field 0 i in
          let value = String.sub field (i + 1) (String.length field - i - 1) in
          match name with
          | "delay" -> (
            match float_of_string_opt value with
            | Some ms when ms >= 0.0 -> set_kind (Delay ms)
            | _ -> fail "fault clause %S: bad delay %S (milliseconds)" part value)
          | "p" -> (
            match float_of_string_opt value with
            | Some f when f >= 0.0 && f <= 1.0 -> p := f
            | _ -> fail "fault clause %S: bad probability %S" part value)
          | "key" -> key := Some value
          | "max" -> (
            match int_of_string_opt value with
            | Some n when n >= 0 -> max_fires := Some n
            | _ -> fail "fault clause %S: bad max %S" part value)
          | _ -> fail "fault clause %S: unknown field %S" part name))
      fields;
    (match (!err, !kind) with
     | Some m, _ -> Error m
     | None, None -> Error (Printf.sprintf "fault clause %S: missing kind (raise|corrupt|delay=MS)" part)
     | None, Some _
       when not (List.exists (fun s -> site_matches ~clause_site:site ~site:s) sites) ->
       Error
         (Printf.sprintf "fault clause %S: unknown site %S (sites: %s)" part site
            (String.concat ", " sites))
     | None, Some k ->
       Ok { c_site = site; c_kind = k; c_key = !key; c_p = !p; c_max = !max_fires })
  | _ -> Error (Printf.sprintf "fault clause %S: missing site" part)

let of_spec spec =
  let parts =
    String.split_on_char ';' spec |> List.map String.trim |> List.filter (fun s -> s <> "")
  in
  let rec go seed clauses = function
    | [] ->
      if clauses = [] then Error "fault spec: no clauses"
      else
        Ok
          {
            seed;
            clauses = Array.of_list (List.rev clauses);
            mutex = Mutex.create ();
            calls = Hashtbl.create 16;
            fired = Hashtbl.create 16;
            log = [];
            metrics = None;
          }
    | part :: rest when String.length part > 5 && String.sub part 0 5 = "seed=" -> (
      match int_of_string_opt (String.sub part 5 (String.length part - 5)) with
      | Some s -> go s clauses rest
      | None -> Error (Printf.sprintf "fault spec: bad seed %S" part))
    | part :: rest -> (
      match parse_clause part with
      | Ok c -> go seed (c :: clauses) rest
      | Error _ as e -> e)
  in
  go 0 [] parts

let from_env () =
  match Sys.getenv_opt "RDNA_FAULTS" with
  | None -> Ok None
  | Some s when String.trim s = "" -> Ok None
  | Some s -> ( match of_spec s with Ok t -> Ok (Some t) | Error e -> Error e)

(* ------------------------------------------------------------ decision --- *)

let fnv64 s =
  let p = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) p) s;
  !h

let splitmix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

(* Uniform in [0,1) from the decision's identity. *)
let roll ~seed ~clause ~site ~key n =
  let h = splitmix64 (fnv64 (Printf.sprintf "%d|%d|%s|%s|%d" seed clause site key n)) in
  let bits = Int64.to_int (Int64.shift_right_logical h 11) in
  float_of_int bits /. 9007199254740992.0 (* 2^53 *)

(* The first matching clause of an accepted kind that passes its max and
   probability checks wins; its fire is logged and counted. *)
let decide t ~site ~key accepts =
  Mutex.protect t.mutex (fun () ->
      let keystr = Option.value key ~default:"" in
      let n = Array.length t.clauses in
      let rec go i =
        if i >= n then None
        else begin
          let c = t.clauses.(i) in
          if
            accepts c.c_kind
            && site_matches ~clause_site:c.c_site ~site
            && (match c.c_key with None -> true | Some k -> Some k = key)
          then begin
            let id = (i, keystr) in
            let calls = 1 + Option.value (Hashtbl.find_opt t.calls id) ~default:0 in
            Hashtbl.replace t.calls id calls;
            let fires = Option.value (Hashtbl.find_opt t.fired id) ~default:0 in
            let under_max = match c.c_max with None -> true | Some m -> fires < m in
            let fire =
              under_max
              && (c.c_p >= 1.0 || roll ~seed:t.seed ~clause:i ~site ~key:keystr calls < c.c_p)
            in
            if fire then begin
              Hashtbl.replace t.fired id (fires + 1);
              t.log <- { i_site = site; i_key = key; i_kind = c.c_kind } :: t.log;
              Metrics.incr t.metrics "fault.injected";
              Some c.c_kind
            end
            else go (i + 1)
          end
          else go (i + 1)
        end
      in
      go 0)

let fault_point ?key t ~site =
  match t with
  | None -> ()
  | Some t -> (
    match decide t ~site ~key (function Raise | Delay _ -> true | Corrupt -> false) with
    | None | Some Corrupt -> ()
    | Some Raise -> raise (Injected (site, key))
    | Some (Delay ms) -> Unix.sleepf (ms /. 1000.0))

let corrupt ?key t ~site text =
  match t with
  | None -> text
  | Some t -> (
    match decide t ~site ~key (function Corrupt -> true | _ -> false) with
    | None -> text
    | Some _ ->
      let n = String.length text in
      if n = 0 then text
      else begin
        let keystr = Option.value key ~default:"" in
        let rng =
          Prng.create
            (Int64.to_int (splitmix64 (fnv64 (Printf.sprintf "%d|corrupt|%s|%s" t.seed site keystr))))
        in
        let b = Bytes.of_string text in
        (* Overwrite ~1.5% of the bytes (at least 8) with printable noise:
           enough to mangle commands, small enough that most of the file
           still parses. *)
        let hits = max 8 (n / 64) in
        for _ = 1 to hits do
          Bytes.set b (Prng.int rng n) (Char.chr (33 + Prng.int rng 94))
        done;
        Bytes.to_string b
      end)

let injections t = Mutex.protect t.mutex (fun () -> List.rev t.log)

let site_of_exn = function Injected (site, _) -> Some site | _ -> None
