(* Verdict on one (workload, metric) between a parent and a change.

   - [Better]: the change wins at least nine tenths of the seed-paired
     runs (ties win for neither side) and the medians differ by more
     than the parent's interquartile range.
   - [Unresolved]: either side's spread (IQR over median) is wider than
     the bound, unless every change run beats every parent run.
   - [Worse]: the change's median is worse than the parent's by more
     than the bound, as a share of the parent's median.
   - [Same] otherwise. *)

type t = Better | Worse | Unresolved | Same

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Same -> "same"

(* [pairs] are (parent, change) values of runs made with the same seed. *)
let judge ~lower_is_better ~bound ~parent ~change ~pairs =
  (* gain > 0 when [b] is better than [a] *)
  let gain a b = if lower_is_better then a -. b else b -. a in
  let pm = Stats.median parent and cm = Stats.median change in
  let q1, _, q3 = Stats.quartiles parent in
  let wins = List.length (List.filter (fun (p, c) -> gain p c > 0.0) pairs) in
  let n = List.length pairs in
  let better = n > 0 && 10 * wins >= 9 * n && gain pm cm > q3 -. q1 in
  let all_better = List.for_all (fun p -> List.for_all (fun c -> gain p c > 0.0) change) parent in
  if better then Better
  else if Float.max (Stats.spread parent) (Stats.spread change) > bound && not all_better then
    Unresolved
  else if gain cm pm > bound *. Float.abs pm then Worse
  else Same
