(* Fixed-size domain worker pool behind one supervised map.

   [parallel_map_results] spawns [jobs] worker domains that pop closures
   off a mutex/condition-protected queue, submits one task per item,
   and reassembles the per-item results in input order, so a parallel
   map is observably identical to its sequential counterpart.
   [parallel_map] is the same map followed by re-raising the
   lowest-index failure.  Worker domains mark themselves via a DLS
   flag; a parallel map issued from inside a worker runs sequentially
   instead of deadlocking on pool capacity.

   Robustness invariants: a worker never dies with the queue non-empty
   (it catches whatever escapes a task), and every item attempt catches
   its own exception — the [pool.pickup] fault site fires inside that
   catch, between task pickup and the mapped function — so each item
   reaches [finish] exactly once and the map's [all_done] wait always
   drains.

   When a recorder/registry is attached, [submit] wraps each task to
   record a queue-wait histogram and a "task" span; workers flush their
   domain-local span buffers just before exiting so every span recorded
   inside the pool survives the join. *)

type t = {
  size : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  trace : Trace.t option;
  metrics : Metrics.t option;
  mutable busy_us : float; (* task wall-clock total; protected by [mutex] *)
  started : float;
}

let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_worker_key

let default_jobs () =
  match Sys.getenv_opt "RDNA_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work_available t.mutex
  done;
  if Queue.is_empty t.queue then begin
    Mutex.unlock t.mutex;
    (* Hand-off point: merge this domain's span buffers into their
       recorders before the domain dies with them. *)
    Trace.flush_current_domain ()
  end
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    (* A raising task must not take the worker down with it: item
       attempts do their own error capture, so anything reaching here
       is a recorder bug — count it and keep serving the queue. *)
    (try task () with _ -> Metrics.incr t.metrics "pool.task_failures");
    worker_loop t
  end

let create ~size ?trace ?metrics () =
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
      trace;
      metrics;
      busy_us = 0.0;
      started = Trace.now ();
    }
  in
  t.domains <-
    List.init size (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker_key true;
            worker_loop t));
  t

let instrument t task =
  match (t.trace, t.metrics) with
  | None, None -> task
  | _ ->
    let enqueued = Trace.now () in
    fun () ->
      let start = Trace.now () in
      Metrics.incr t.metrics "pool.tasks";
      Metrics.observe t.metrics "pool.queue_wait_ms" ((start -. enqueued) *. 1e3);
      let h = Trace.begin_span ~cat:"pool" t.trace "task" in
      Fun.protect
        ~finally:(fun () ->
          Trace.end_span h;
          let dur = Trace.now () -. start in
          Metrics.observe t.metrics "pool.task_ms" (dur *. 1e3);
          Mutex.protect t.mutex (fun () -> t.busy_us <- t.busy_us +. (dur *. 1e6)))
        task

let submit t task =
  let task = instrument t task in
  Mutex.protect t.mutex (fun () ->
      Queue.push task t.queue;
      Condition.signal t.work_available)

(* Drain the queue, join the workers, publish the utilization gauges. *)
let shutdown t =
  Mutex.protect t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.work_available);
  List.iter Domain.join t.domains;
  match t.metrics with
  | None -> ()
  | Some _ ->
    let elapsed_us = (Trace.now () -. t.started) *. 1e6 in
    Metrics.set t.metrics "pool.workers" (float_of_int t.size);
    if elapsed_us > 0.0 then
      Metrics.set t.metrics "pool.utilization"
        (t.busy_us /. (elapsed_us *. float_of_int t.size))

(* ------------------------------------------------------------ failures --- *)

type cause =
  | Exn
  | Fault of string
  | Budget of string
  | Timed_out of Cancel.reason

type failure = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  site : string option;
  cause : cause;
  attempts : int;
  elapsed : float;
}

let failure_site e =
  match Cancel.site_of_exn e with
  | Some _ as s -> s
  | None ->
    (match Fault.site_of_exn e with Some _ as s -> s | None -> Limits.site_of_exn e)

let cause_of_exn e =
  match Cancel.reason_of_exn e with
  | Some r -> Timed_out r
  | None ->
    (match e with
     | Fault.Injected (site, _) -> Fault site
     | Limits.Budget_exceeded { site; _ } -> Budget site
     | _ -> Exn)

(* A cancelled task is never retried: its deadline stays expired, so a
   retry can only burn budget re-reaching the same poll point. *)
let retryable = function Timed_out _ -> false | Exn | Fault _ | Budget _ -> true

let reraise fl = Printexc.raise_with_backtrace fl.exn fl.backtrace

(* Attempt [k] of one item: poll [cancel] so work queued behind a
   tripped token fails fast instead of running, fire the pickup fault
   site (armed only on the pool path), run [f].  Never raises. *)
let attempt ?cancel ?faults ~started ~k f x =
  match
    Cancel.check ~site:"pool.queued" cancel;
    Fault.fault_point faults ~site:Fault.pool_pickup;
    f x
  with
  | y -> Ok y
  | exception e ->
    let backtrace = Printexc.get_raw_backtrace () in
    Error
      {
        exn = e;
        backtrace;
        site = failure_site e;
        cause = cause_of_exn e;
        attempts = k;
        elapsed = Trace.now () -. started;
      }

(* The retry decision both paths share: whether attempt [k]'s failure
   earns another attempt, counting [task.retried]. *)
let retry ~retries ~metrics ~k fl =
  let again = k <= retries && retryable fl.cause in
  if again then Metrics.incr metrics "task.retried";
  again

(* The sequential path. *)
let supervised ~retries ~metrics ?cancel f x =
  let started = Trace.now () in
  let rec go k =
    match attempt ?cancel ~started ~k f x with
    | Ok _ as r -> r
    | Error fl as r -> if retry ~retries ~metrics ~k fl then go (k + 1) else r
  in
  go 1

(* The pool path: one task per item; an item that earns a retry is
   requeued behind the items already waiting. *)
let map_on t ~retries ?cancel ?faults f l =
  let input = Array.of_list l in
  let results = Array.make (Array.length input) None in
  let m = Mutex.create () in
  let all_done = Condition.create () in
  let remaining = ref (Array.length input) in
  let finish i r =
    Mutex.protect m (fun () ->
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.signal all_done)
  in
  let rec run_item i ~k ~started () =
    let started = if k = 1 then Trace.now () else started in
    match attempt ?cancel ?faults ~started ~k f input.(i) with
    | Ok _ as r -> finish i r
    | Error fl as r ->
      if retry ~retries ~metrics:t.metrics ~k fl then submit t (run_item i ~k:(k + 1) ~started)
      else finish i r
  in
  Array.iteri (fun i _ -> submit t (run_item i ~k:1 ~started:0.0)) input;
  Mutex.lock m;
  while !remaining > 0 do
    Condition.wait all_done m
  done;
  Mutex.unlock m;
  Array.to_list (Array.map Option.get results)

let parallel_map_results ?jobs ?trace ?metrics ?faults ?cancel ?(retries = 0) f l =
  let size = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  if size <= 1 || List.length l <= 1 || in_worker () then
    List.map (supervised ~retries ~metrics ?cancel f) l
  else begin
    let t = create ~size ?trace ?metrics () in
    Fun.protect
      ~finally:(fun () -> shutdown t)
      (fun () -> map_on t ~retries ?cancel ?faults f l)
  end

(* [List.map] applies its function in list order, so the failure
   re-raised is the lowest-index one whatever the schedule. *)
let parallel_map ?jobs ?faults f l =
  List.map (function Ok y -> y | Error fl -> reraise fl) (parallel_map_results ?jobs ?faults f l)
