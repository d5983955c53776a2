type 'a t = { value : 'a option; zero : 'a t option; one : 'a t option }

let empty = { value = None; zero = None; one = None }

let is_node_empty n = n.value = None && n.zero = None && n.one = None

let is_empty = is_node_empty

let bit_at addr depth = Ipv4.to_int addr land (1 lsl (31 - depth)) <> 0

let rec add_at p v depth node =
  if depth = Prefix.len p then { node with value = Some v }
  else begin
    let child = if bit_at (Prefix.addr p) depth then node.one else node.zero in
    let child = Option.value child ~default:empty in
    let child = add_at p v (depth + 1) child in
    if bit_at (Prefix.addr p) depth then { node with one = Some child }
    else { node with zero = Some child }
  end

let add p v t = add_at p v 0 t

let rec remove_at p depth node =
  let node =
    if depth = Prefix.len p then { node with value = None }
    else begin
      let dir_one = bit_at (Prefix.addr p) depth in
      let child = if dir_one then node.one else node.zero in
      match child with
      | None -> node
      | Some c ->
        let c = remove_at p (depth + 1) c in
        let c = if is_node_empty c then None else Some c in
        if dir_one then { node with one = c } else { node with zero = c }
    end
  in
  node

let remove p t = remove_at p 0 t

(* Top-down over the sorted array: within a node's range its own binding
   comes first, then every prefix whose next bit is 0, then those whose
   next bit is 1 — the shape [add] would build, without path copying. *)
let of_bindings bindings =
  let b = Array.of_list bindings in
  for i = 1 to Array.length b - 1 do
    if Prefix.compare (fst b.(i - 1)) (fst b.(i)) >= 0 then
      invalid_arg "Prefix_trie.of_bindings: bindings not strictly increasing"
  done;
  let rec build lo hi depth =
    let value, lo =
      if Prefix.len (fst b.(lo)) = depth then (Some (snd b.(lo)), lo + 1) else (None, lo)
    in
    let mid = ref lo in
    while !mid < hi && not (bit_at (Prefix.addr (fst b.(!mid))) depth) do
      incr mid
    done;
    let mid = !mid in
    {
      value;
      zero = (if mid > lo then Some (build lo mid (depth + 1)) else None);
      one = (if hi > mid then Some (build mid hi (depth + 1)) else None);
    }
  in
  if Array.length b = 0 then empty else build 0 (Array.length b) 0

let rec find_at p depth node =
  if depth = Prefix.len p then node.value
  else begin
    let child = if bit_at (Prefix.addr p) depth then node.one else node.zero in
    match child with None -> None | Some c -> find_at p (depth + 1) c
  end

let find p t = find_at p 0 t

let matches a t =
  let rec go depth node acc =
    let acc =
      match node.value with
      | Some v -> (Prefix.make a depth, v) :: acc
      | None -> acc
    in
    if depth = 32 then acc
    else begin
      let child = if bit_at a depth then node.one else node.zero in
      match child with None -> acc | Some c -> go (depth + 1) c acc
    end
  in
  List.rev (go 0 t [])

let longest_match a t =
  match matches a t with [] -> None | l -> Some (List.hd (List.rev l))

let covering p t =
  (* Most specific binding at depth <= len p along p's bit path. *)
  let rec go depth node best =
    let best =
      match node.value with
      | Some v when depth <= Prefix.len p -> Some (Prefix.make (Prefix.addr p) depth, v)
      | _ -> best
    in
    if depth >= Prefix.len p then best
    else begin
      let child = if bit_at (Prefix.addr p) depth then node.one else node.zero in
      match child with None -> best | Some c -> go (depth + 1) c best
    end
  in
  go 0 t None

let fold f t init =
  let rec go addr depth node acc =
    let acc =
      match node.value with
      | Some v -> f (Prefix.make (Ipv4.of_int addr) depth) v acc
      | None -> acc
    in
    let acc = match node.zero with None -> acc | Some c -> go addr (depth + 1) c acc in
    match node.one with
    | None -> acc
    | Some c -> go (addr lor (1 lsl (31 - depth))) (depth + 1) c acc
  in
  go 0 0 t init

let iter f t = fold (fun p v () -> f p v) t ()

let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let cardinal t = fold (fun _ _ n -> n + 1) t 0

let covered_by p t =
  List.filter (fun (q, _) -> Prefix.subset q p) (bindings t)

let update p f t =
  match f (find p t) with
  | None -> remove p t
  | Some v -> add p v t
