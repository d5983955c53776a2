(* Counter/gauge/histogram registry behind one mutex.

   Updates are short critical sections (a hashtable probe and a couple of
   field writes), so sharing the registry across pool workers is cheap;
   the callers that could contend (per-line parser counters) batch their
   bumps per file instead of per line. *)

type histo_cell = {
  bounds : float array;
  counts : int array; (* length = Array.length bounds + 1; last = overflow *)
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

type cell = Counter of int ref | Gauge of float ref | Histogram of histo_cell

type t = { mutex : Mutex.t; cells : (string, cell) Hashtbl.t }

let create () = { mutex = Mutex.create (); cells = Hashtbl.create 32 }

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let with_cell t name mk use =
  Mutex.protect t.mutex (fun () ->
      let c =
        match Hashtbl.find_opt t.cells name with
        | Some c -> c
        | None ->
          let c = mk () in
          Hashtbl.add t.cells name c;
          c
      in
      use c)

let wrong_kind op name c =
  invalid_arg (Printf.sprintf "Metrics.%s: %s is a %s" op name (kind_name c))

let incr ?(by = 1) t name =
  match t with
  | None -> ()
  | Some t ->
    with_cell t name
      (fun () -> Counter (ref 0))
      (function Counter r -> r := !r + by | c -> wrong_kind "incr" name c)

let set t name v =
  match t with
  | None -> ()
  | Some t ->
    with_cell t name
      (fun () -> Gauge (ref 0.0))
      (function Gauge r -> r := v | c -> wrong_kind "set" name c)

let default_buckets = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000. |]

let observe ?(buckets = default_buckets) t name v =
  match t with
  | None -> ()
  | Some t ->
    with_cell t name
      (fun () ->
        Histogram
          {
            bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            count = 0;
            sum = 0.0;
            vmin = Float.nan;
            vmax = Float.nan;
          })
      (function
        | Histogram h ->
          let n = Array.length h.bounds in
          let rec idx i = if i >= n || v <= h.bounds.(i) then i else idx (i + 1) in
          let i = idx 0 in
          h.counts.(i) <- h.counts.(i) + 1;
          h.count <- h.count + 1;
          h.sum <- h.sum +. v;
          if h.count = 1 then begin
            h.vmin <- v;
            h.vmax <- v
          end
          else begin
            if v < h.vmin then h.vmin <- v;
            if v > h.vmax then h.vmax <- v
          end
        | c -> wrong_kind "observe" name c)

type histogram = {
  buckets : (float * int) list;
  overflow : int;
  count : int;
  sum : float;
  min : float;
  max : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram) list;
}

let freeze_histo (h : histo_cell) =
  {
    buckets = Array.to_list (Array.mapi (fun i b -> (b, h.counts.(i))) h.bounds);
    overflow = h.counts.(Array.length h.bounds);
    count = h.count;
    sum = h.sum;
    min = h.vmin;
    max = h.vmax;
  }

let snapshot t =
  Mutex.protect t.mutex (fun () ->
      let counters = ref [] and gauges = ref [] and histograms = ref [] in
      Hashtbl.iter
        (fun name -> function
          | Counter r -> counters := (name, !r) :: !counters
          | Gauge r -> gauges := (name, !r) :: !gauges
          | Histogram h -> histograms := (name, freeze_histo h) :: !histograms)
        t.cells;
      let by_name (a, _) (b, _) = String.compare a b in
      {
        counters = List.sort by_name !counters;
        gauges = List.sort by_name !gauges;
        histograms = List.sort by_name !histograms;
      })

let counter_value t name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with Some (Counter r) -> Some !r | _ -> None)

let find_histogram t name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (Histogram h) -> Some (freeze_histo h)
      | _ -> None)

let render t =
  let s = snapshot t in
  let buf = Buffer.create 512 in
  if s.counters <> [] then begin
    Buffer.add_string buf
      (Table.render ~headers:[ "counter"; "value" ]
         ~aligns:[ Table.Left; Table.Right ]
         (List.map (fun (n, v) -> [ n; string_of_int v ]) s.counters));
    Buffer.add_char buf '\n'
  end;
  if s.gauges <> [] then begin
    Buffer.add_string buf
      (Table.render ~headers:[ "gauge"; "value" ]
         ~aligns:[ Table.Left; Table.Right ]
         (List.map (fun (n, v) -> [ n; Printf.sprintf "%.3f" v ]) s.gauges));
    Buffer.add_char buf '\n'
  end;
  if s.histograms <> [] then begin
    Buffer.add_string buf
      (Table.render
         ~headers:[ "histogram"; "count"; "sum"; "min"; "mean"; "max" ]
         ~aligns:
           [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
         (List.map
            (fun (n, h) ->
              let num f = if Float.is_nan f then "-" else Printf.sprintf "%.2f" f in
              [
                n;
                string_of_int h.count;
                num h.sum;
                num h.min;
                num (if h.count = 0 then Float.nan else h.sum /. float_of_int h.count);
                num h.max;
              ])
            s.histograms));
    Buffer.add_char buf '\n'
  end;
  if Buffer.length buf = 0 then "(no metrics recorded)\n" else Buffer.contents buf

let to_json t =
  let s = snapshot t in
  let histo_json (h : histogram) =
    Json.Obj
      [
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ("min", Json.Float h.min);
        ("max", Json.Float h.max);
        ( "buckets",
          Json.List
            (List.map (fun (le, n) -> Json.Obj [ ("le", Json.Float le); ("n", Json.Int n) ]) h.buckets
             @ [ Json.Obj [ ("le", Json.Null); ("n", Json.Int h.overflow) ] ]) );
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges));
      ("histograms", Json.Obj (List.map (fun (n, h) -> (n, histo_json h)) s.histograms));
    ]
