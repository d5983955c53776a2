(* Span tracer with per-domain buffers.

   Recording a span only touches domain-local state: each domain lazily
   allocates a buffer per recorder (DLS key) and registers a flush thunk
   in its own flusher list.  Merging into the shared recorder happens
   under the recorder mutex, but only at hand-off points: when a pool
   worker exits (Pool calls [flush_current_domain]) and when the
   exporting domain reads the spans.  So the hot path is lock-free and
   cross-domain reads only see flushed, immutable data. *)

type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  depth : int;
  args : (string * value) list;
}

type local = {
  mutable depth : int; (* open spans in this domain *)
  mutable buf : span list; (* completed spans, newest first *)
}

(* Flush thunks for every recorder this domain has written to. *)
let domain_flushers : (unit -> unit) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

type t = {
  mutex : Mutex.t;
  epoch : float;
  mutable merged : span list; (* flushed spans, newest first *)
  key : local Domain.DLS.key;
}

let now () = Unix.gettimeofday ()

let flush_from (l : local) t =
  match l.buf with
  | [] -> ()
  | spans ->
    l.buf <- [];
    Mutex.protect t.mutex (fun () -> t.merged <- spans @ t.merged)

let create () =
  (* The DLS initializer needs the recorder to register its flush thunk,
     and the recorder needs the key: tie the knot through a ref.  The
     ref is filled before any domain can touch the key. *)
  let tref = ref None in
  let key =
    Domain.DLS.new_key (fun () ->
        let l = { depth = 0; buf = [] } in
        (match !tref with
         | Some t ->
           let fl = Domain.DLS.get domain_flushers in
           fl := (fun () -> flush_from l t) :: !fl
         | None -> ());
        l)
  in
  let t = { mutex = Mutex.create (); epoch = now (); merged = []; key } in
  tref := Some t;
  t

let local t = Domain.DLS.get t.key

let flush_current_domain () =
  List.iter (fun f -> f ()) !(Domain.DLS.get domain_flushers)

type handle =
  | No_span
  | Open of {
      h_t : t;
      h_name : string;
      h_cat : string;
      h_args : (string * value) list;
      h_start : float;
      h_depth : int;
    }

let begin_span ?(cat = "stage") ?(args = []) t name =
  match t with
  | None -> No_span
  | Some t ->
    let l = local t in
    let d = l.depth in
    l.depth <- d + 1;
    Open { h_t = t; h_name = name; h_cat = cat; h_args = args; h_start = now (); h_depth = d }

let end_span ?(args = []) h =
  match h with
  | No_span -> ()
  | Open h ->
    let stop = now () in
    let l = local h.h_t in
    l.depth <- l.depth - 1;
    let s =
      {
        name = h.h_name;
        cat = h.h_cat;
        ts_us = (h.h_start -. h.h_t.epoch) *. 1e6;
        dur_us = (stop -. h.h_start) *. 1e6;
        tid = (Domain.self () :> int);
        depth = h.h_depth;
        args = h.h_args @ args;
      }
    in
    l.buf <- s :: l.buf

let span ?cat ?args t name f =
  match t with
  | None -> f ()
  | Some _ ->
    let h = begin_span ?cat ?args t name in
    Fun.protect ~finally:(fun () -> end_span h) f

let spans t =
  flush_from (local t) t;
  let merged = Mutex.protect t.mutex (fun () -> t.merged) in
  List.stable_sort (fun a b -> Float.compare a.ts_us b.ts_us) (List.rev merged)

let stage_table t =
  let cells = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      if String.equal s.cat "stage" then begin
        match Hashtbl.find_opt cells s.name with
        | Some (total, count) -> Hashtbl.replace cells s.name (total +. s.dur_us, count + 1)
        | None ->
          Hashtbl.add cells s.name (s.dur_us, 1);
          order := s.name :: !order
      end)
    (spans t);
  List.rev_map
    (fun name ->
      let total, count = Hashtbl.find cells name in
      (name, total /. 1e6, count))
    !order

let total t =
  List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 (stage_table t)

let render_stages t =
  match stage_table t with
  | [] -> "(no stages recorded)\n"
  | sts ->
    let rows =
      List.map (fun (stage, s, n) -> [ stage; Printf.sprintf "%.3f" s; string_of_int n ]) sts
      @ [ [ "total"; Printf.sprintf "%.3f" (total t); "" ] ]
    in
    Table.render ~headers:[ "stage"; "seconds"; "spans" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      rows

let json_of_value = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | String s -> Json.String s

let to_json t =
  let pid = Unix.getpid () in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("cat", Json.String s.cat);
            ("ph", Json.String "X");
            ("ts", Json.Float s.ts_us);
            ("dur", Json.Float s.dur_us);
            ("pid", Json.Int pid);
            ("tid", Json.Int s.tid);
            ( "args",
              Json.Obj
                (("depth", Json.Int s.depth)
                 :: List.map (fun (k, v) -> (k, json_of_value v)) s.args) );
          ])
      (spans t)
  in
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let to_file t path = Json.to_file path (to_json t)
