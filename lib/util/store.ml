(* On-disk format, one file per entry:

     rdstore1\n
     <payload length, decimal>\n
     <20-byte raw SHA-1 of payload>
     <payload>

   The frame makes truncation detectable (length mismatch), bit rot
   detectable (digest mismatch), and foreign files rejectable (magic
   mismatch) — all three degrade to a counted miss. *)

let magic = "rdstore1\n"

type key = string

type t = {
  dir : string;
  metrics : Metrics.t option;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable corrupt : int;
  seq : int Atomic.t; (* temp-file uniquifier within this process *)
}

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir ?metrics dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": checkpoint path exists and is not a directory"));
  {
    dir;
    metrics;
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    writes = 0;
    corrupt = 0;
    seq = Atomic.make 0;
  }

let counted t what =
  Mutex.protect t.mutex (fun () ->
      match what with
      | `Hit -> t.hits <- t.hits + 1
      | `Miss -> t.misses <- t.misses + 1
      | `Write -> t.writes <- t.writes + 1
      | `Corrupt ->
        t.corrupt <- t.corrupt + 1;
        t.misses <- t.misses + 1);
  match what with
  | `Hit -> Metrics.incr t.metrics "store.hits"
  | `Miss -> Metrics.incr t.metrics "store.misses"
  | `Write -> Metrics.incr t.metrics "store.writes"
  | `Corrupt ->
    Metrics.incr t.metrics "store.corrupt";
    Metrics.incr t.metrics "store.misses"

let entry_path t k = Filename.concat t.dir (Sha1.to_hex k ^ ".entry")

(* Returns the verified payload without touching counters; the caller
   classifies the outcome. *)
let read_entry path =
  match open_in_bin path with
  | exception Sys_error _ -> `Absent
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          let m = really_input_string ic (String.length magic) in
          if m <> magic then `Corrupt
          else
            match int_of_string_opt (input_line ic) with
            | None -> `Corrupt
            | Some len when len < 0 -> `Corrupt
            | Some len ->
              let digest = really_input_string ic 20 in
              let payload = really_input_string ic len in
              (* Trailing junk means the frame lied about its length. *)
              if pos_in ic <> in_channel_length ic then `Corrupt
              else if Sha1.digest_string payload <> digest then `Corrupt
              else `Entry payload
        with End_of_file | Sys_error _ -> `Corrupt)

let find t k =
  match read_entry (entry_path t k) with
  | `Entry payload ->
    counted t `Hit;
    Some payload
  | `Absent ->
    counted t `Miss;
    None
  | `Corrupt ->
    counted t `Corrupt;
    None

let add t k payload =
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf "tmp-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add t.seq 1))
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        output_string oc (string_of_int (String.length payload));
        output_char oc '\n';
        output_string oc (Sha1.digest_string payload);
        output_string oc payload;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp (entry_path t k)
  with
  | () -> counted t `Write
  | exception (Sys_error _ | Unix.Unix_error _) ->
    (* Checkpointing is best-effort: a full disk must not kill the
       run.  Leave no temp droppings behind if we can help it. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    Metrics.incr t.metrics "store.write_failures"

type stats = { hits : int; misses : int; writes : int; corrupt : int }

let stats t =
  Mutex.protect t.mutex (fun () ->
      { hits = t.hits; misses = t.misses; writes = t.writes; corrupt = t.corrupt })

let render_stats t =
  let s = stats t in
  Printf.sprintf "checkpoint store: %d hits, %d misses (%d corrupt), %d writes" s.hits
    s.misses s.corrupt s.writes
