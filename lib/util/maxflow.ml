type edge = { dst : int; mutable cap : int; rev : int }

type t = { adj : edge list ref array; mutable frozen : edge array array option }

let create n = { adj = Array.init n (fun _ -> ref []); frozen = None }

let add_edge g u v cap =
  let fwd = { dst = v; cap; rev = List.length !(g.adj.(v)) } in
  let bwd = { dst = u; cap = 0; rev = List.length !(g.adj.(u)) } in
  g.adj.(u) := !(g.adj.(u)) @ [ fwd ];
  g.adj.(v) := !(g.adj.(v)) @ [ bwd ]

let freeze g =
  match g.frozen with
  | Some a -> a
  | None ->
    let a = Array.map (fun l -> Array.of_list !l) g.adj in
    g.frozen <- Some a;
    a

(* Dinic: BFS level graph + DFS blocking flows. *)
let max_flow g ~source ~sink =
  let adj = freeze g in
  let n = Array.length adj in
  let level = Array.make n (-1) in
  let iter = Array.make n 0 in
  let bfs () =
    Array.fill level 0 n (-1);
    let q = Queue.create () in
    level.(source) <- 0;
    Queue.add source q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Array.iter
        (fun e ->
          if e.cap > 0 && level.(e.dst) < 0 then begin
            level.(e.dst) <- level.(u) + 1;
            Queue.add e.dst q
          end)
        adj.(u)
    done;
    level.(sink) >= 0
  in
  let rec dfs u f =
    if u = sink then f
    else begin
      let res = ref 0 in
      while !res = 0 && iter.(u) < Array.length adj.(u) do
        let e = adj.(u).(iter.(u)) in
        if e.cap > 0 && level.(e.dst) = level.(u) + 1 then begin
          let d = dfs e.dst (min f e.cap) in
          if d > 0 then begin
            e.cap <- e.cap - d;
            adj.(e.dst).(e.rev).cap <- adj.(e.dst).(e.rev).cap + d;
            res := d
          end
          else iter.(u) <- iter.(u) + 1
        end
        else iter.(u) <- iter.(u) + 1
      done;
      !res
    end
  in
  let flow = ref 0 in
  while bfs () do
    Array.fill iter 0 n 0;
    let rec pump () =
      let f = dfs source max_int in
      if f > 0 then begin
        flow := !flow + f;
        pump ()
      end
    in
    pump ()
  done;
  !flow

let min_vertex_cut_set ~n ~edges ~sources ~sinks =
  (* Node splitting over n routers plus virtual source S=n and sink T=n+1.
     Routers have unit internal capacity (any router may fail); S and T
     are infinite. *)
  let total = n + 2 in
  let s = n and t = n + 1 in
  let inf = (2 * n) + 2 in
  let g = create (2 * total) in
  for v = 0 to total - 1 do
    let cap = if v = s || v = t then inf else 1 in
    add_edge g (2 * v) ((2 * v) + 1) cap
  done;
  let connect u v =
    add_edge g ((2 * u) + 1) (2 * v) inf;
    add_edge g ((2 * v) + 1) (2 * u) inf
  in
  List.iter (fun (u, v) -> connect u v) edges;
  List.iter (fun r -> add_edge g ((2 * s) + 1) (2 * r) inf) sources;
  List.iter (fun r -> add_edge g ((2 * r) + 1) (2 * t) inf) sinks;
  let value = max_flow g ~source:((2 * s) + 1) ~sink:(2 * t) in
  (* Residual reachability from S_out identifies the cut: routers whose
     v_in is reachable but v_out is not. *)
  let adj = freeze g in
  let reach = Array.make (Array.length adj) false in
  let q = Queue.create () in
  reach.((2 * s) + 1) <- true;
  Queue.add ((2 * s) + 1) q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun e ->
        if e.cap > 0 && not reach.(e.dst) then begin
          reach.(e.dst) <- true;
          Queue.add e.dst q
        end)
      adj.(u)
  done;
  let cut = ref [] in
  for v = 0 to n - 1 do
    if reach.(2 * v) && not reach.((2 * v) + 1) then cut := v :: !cut
  done;
  (value, List.rev !cut)
