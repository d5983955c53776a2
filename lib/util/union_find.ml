type t = { parent : int array; rank : int array }

let create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.parent.(i) <- root;
    root
  end

let union t i j =
  let ri = find t i and rj = find t j in
  if ri <> rj then begin
    if t.rank.(ri) < t.rank.(rj) then t.parent.(ri) <- rj
    else if t.rank.(ri) > t.rank.(rj) then t.parent.(rj) <- ri
    else begin
      t.parent.(rj) <- ri;
      t.rank.(ri) <- t.rank.(ri) + 1
    end
  end

let groups t =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i _ ->
      let r = find t i in
      let cur = try Hashtbl.find tbl r with Not_found -> [] in
      Hashtbl.replace tbl r (i :: cur))
    t.parent;
  tbl
