type reason =
  | Deadline of float
  | Stopped of string

exception Cancelled of { site : string; reason : reason }

type t = {
  state : reason option Atomic.t;
  expires : float option; (* absolute, Unix.gettimeofday basis *)
  budget : float option; (* the seconds-from-now this token was given *)
  parent : t option;
}

let reason_to_string = function
  | Deadline s -> Printf.sprintf "deadline %gs exceeded" s
  | Stopped why -> "stopped: " ^ why

let () =
  Printexc.register_printer (function
    | Cancelled { site; reason } ->
      Some (Printf.sprintf "cancelled at %s: %s" site (reason_to_string reason))
    | _ -> None)

let make ?deadline parent =
  let expires = Option.map (fun d -> Unix.gettimeofday () +. d) deadline in
  { state = Atomic.make None; expires; budget = deadline; parent }

let create ?deadline () = make ?deadline None

let child ?deadline t = make ?deadline (Some t)

let task ?timeout parent =
  match (parent, timeout) with
  | None, None -> None
  | Some p, deadline -> Some (child ?deadline p)
  | None, deadline -> Some (create ?deadline ())

let cancel ?(reason = "cancelled") t =
  (* First cancellation wins; a lost CAS means someone else's reason
     already stuck, which is exactly the idempotence we want.  No lock
     is taken, so this is safe from a signal handler. *)
  ignore (Atomic.compare_and_set t.state None (Some (Stopped reason)))

(* Deadline expiry latches into [state] so the reason observed by the
   first poll is the reason every later poll (and the failure report)
   sees, even if an explicit [cancel] races in afterwards. *)
let rec status t =
  match Atomic.get t.state with
  | Some _ as r -> r
  | None ->
    let expired =
      match t.expires with
      | Some at when Unix.gettimeofday () >= at ->
        let r = Deadline (Option.value t.budget ~default:0.0) in
        ignore (Atomic.compare_and_set t.state None (Some r));
        Atomic.get t.state
      | _ -> None
    in
    (match expired with
     | Some _ as r -> r
     | None -> (match t.parent with None -> None | Some p -> status p))

let cancelled = function None -> false | Some t -> status t <> None

let check ~site t =
  match t with
  | None -> ()
  | Some t ->
    (match status t with
     | None -> ()
     | Some reason -> raise (Cancelled { site; reason }))

let remaining t =
  let rec tightest acc t =
    let acc =
      match (acc, t.expires) with
      | None, e -> e
      | (Some _ as a), None -> a
      | Some a, Some e -> Some (Float.min a e)
    in
    match t.parent with None -> acc | Some p -> tightest acc p
  in
  Option.map (fun at -> at -. Unix.gettimeofday ()) (tightest None t)

let site_of_exn = function Cancelled { site; _ } -> Some site | _ -> None

let reason_of_exn = function Cancelled { reason; _ } -> Some reason | _ -> None
