let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile p = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let floats = List.map float_of_int

let imean xs = mean (floats xs)
let imedian xs = median (floats xs)

let imin = function [] -> 0 | x :: xs -> List.fold_left min x xs
let imax = function [] -> 0 | x :: xs -> List.fold_left max x xs

let histogram ~edges xs =
  let edges = Array.of_list edges in
  let counts = Array.make (Array.length edges + 1) 0 in
  let bucket x =
    let rec go i = if i = Array.length edges then i else if x <= edges.(i) then i else go (i + 1) in
    go 0
  in
  List.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
  counts
