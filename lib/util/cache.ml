type key = string (* 20-byte raw SHA-1 digest *)

(* Unambiguous framing: the digest covers the stage name, the version,
   and every part prefixed by its length, so ["ab"; "c"] and ["a"; "bc"]
   derive different keys. *)
let key ~stage ~version parts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf stage;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (string_of_int version);
  Buffer.add_char buf '\x00';
  List.iter
    (fun part ->
      Buffer.add_string buf (string_of_int (String.length part));
      Buffer.add_char buf '\x01';
      Buffer.add_string buf part)
    parts;
  Sha1.digest_string (Buffer.contents buf)

let hex = Sha1.to_hex
let raw (k : key) : Store.key = k

(* [hot] is the second-chance bit: set on every lookup hit, cleared by
   an eviction sweep.  An entry neither found nor inserted between two
   sweeps is cold and gets evicted first. *)
type 'a entry = { value : 'a; mutable hot : bool }

type 'a t = {
  name : string;
  capacity : int;
  mutex : Mutex.t;
  table : (key, 'a entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(capacity = 256) ~name () =
  {
    name;
    capacity = max 1 capacity;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let name c = c.name

let locked c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let counter c what = Printf.sprintf "cache.%s.%s" c.name what

let set_entries metrics c =
  Metrics.set metrics (counter c "entries") (float_of_int (Hashtbl.length c.table))

(* Segmented second-chance eviction: a capacity hit sweeps the table
   once, evicting cold entries (and, only if the cold set alone is not
   enough, demoted hot ones) until at most half the capacity remains,
   and clears the hot bit on the survivors.  A warm working set — the
   entries a what-if sweep keeps re-finding — survives the sweep; only
   the cold tail pays.  Must be called with the store lock held. *)
let evict_sweep metrics c =
  let target = c.capacity / 2 in
  let cold = ref [] and hot = ref [] in
  Hashtbl.iter
    (fun k e ->
      if e.hot then begin
        e.hot <- false;
        hot := k :: !hot
      end
      else cold := k :: !cold)
    c.table;
  let evicted = ref 0 in
  let evict k =
    if Hashtbl.length c.table > target then begin
      Hashtbl.remove c.table k;
      incr evicted
    end
  in
  List.iter evict !cold;
  List.iter evict !hot;
  c.evictions <- c.evictions + !evicted;
  Metrics.incr metrics ~by:!evicted (counter c "evictions")

(* Insert with eviction-on-capacity; lock held.  New entries arrive
   hot so a sweep immediately after an insertion burst does not drop
   the values just computed. *)
let insert_locked metrics c k v =
  if Hashtbl.length c.table >= c.capacity && not (Hashtbl.mem c.table k) then
    evict_sweep metrics c;
  Hashtbl.replace c.table k { value = v; hot = true };
  set_entries metrics c

let find ?metrics c k =
  let r =
    locked c (fun () ->
        match Hashtbl.find_opt c.table k with
        | Some e ->
          e.hot <- true;
          c.hits <- c.hits + 1;
          Some e.value
        | None ->
          c.misses <- c.misses + 1;
          None)
  in
  Metrics.incr metrics (counter c (if Option.is_none r then "misses" else "hits"));
  r

let add ?metrics c k v = locked c (fun () -> insert_locked metrics c k v)

let find_or_add ?metrics ?trace c k f =
  match find ?metrics c k with
  | Some v -> v
  | None ->
    let v =
      Trace.span ~cat:"cache"
        ~args:[ ("cache", Trace.String c.name); ("key", Trace.String (hex k)) ]
        trace "cache.miss" f
    in
    add ?metrics c k v;
    v

let invalidate ?metrics c k =
  locked c (fun () ->
      if Hashtbl.mem c.table k then begin
        Hashtbl.remove c.table k;
        c.invalidations <- c.invalidations + 1;
        Metrics.incr metrics (counter c "invalidations");
        set_entries metrics c
      end)

let clear ?metrics c =
  locked c (fun () ->
      let n = Hashtbl.length c.table in
      if n > 0 then begin
        Hashtbl.reset c.table;
        c.invalidations <- c.invalidations + n;
        Metrics.incr metrics ~by:n (counter c "invalidations");
        set_entries metrics c
      end)

let length c = locked c (fun () -> Hashtbl.length c.table)

type stats = { hits : int; misses : int; evictions : int; invalidations : int }

let stats c =
  locked c (fun () ->
      {
        hits = c.hits;
        misses = c.misses;
        evictions = c.evictions;
        invalidations = c.invalidations;
      })
