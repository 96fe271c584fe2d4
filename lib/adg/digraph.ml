module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type 'a t = {
  payload : 'a Imap.t;
  succ : Iset.t Imap.t;
  pred : Iset.t Imap.t;
}

let empty = { payload = Imap.empty; succ = Imap.empty; pred = Imap.empty }

let add_node t id x =
  {
    payload = Imap.add id x t.payload;
    succ = (if Imap.mem id t.succ then t.succ else Imap.add id Iset.empty t.succ);
    pred = (if Imap.mem id t.pred then t.pred else Imap.add id Iset.empty t.pred);
  }

let mem t id = Imap.mem id t.payload

let adj map id = Option.value ~default:Iset.empty (Imap.find_opt id map)

let remove_node t id =
  if not (mem t id) then t
  else
    let out = adj t.succ id and inc = adj t.pred id in
    let succ =
      Iset.fold (fun p m -> Imap.update p (Option.map (Iset.remove id)) m) inc t.succ
    in
    let pred =
      Iset.fold (fun s m -> Imap.update s (Option.map (Iset.remove id)) m) out t.pred
    in
    {
      payload = Imap.remove id t.payload;
      succ = Imap.remove id succ;
      pred = Imap.remove id pred;
    }

let add_edge t src dst =
  if src = dst then invalid_arg "Digraph.add_edge: self loop";
  if not (mem t src && mem t dst) then
    invalid_arg "Digraph.add_edge: missing endpoint";
  {
    t with
    succ = Imap.add src (Iset.add dst (adj t.succ src)) t.succ;
    pred = Imap.add dst (Iset.add src (adj t.pred dst)) t.pred;
  }

let remove_edge t src dst =
  {
    t with
    succ = Imap.update src (Option.map (Iset.remove dst)) t.succ;
    pred = Imap.update dst (Option.map (Iset.remove src)) t.pred;
  }

let mem_edge t src dst = Iset.mem dst (adj t.succ src)
let find t id = Imap.find_opt id t.payload

let find_exn t id =
  match find t id with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Digraph.find_exn: no node %d" id)

let set_node t id x =
  if not (mem t id) then invalid_arg "Digraph.set_node: missing node";
  { t with payload = Imap.add id x t.payload }

let succs t id = Iset.elements (adj t.succ id)
let preds t id = Iset.elements (adj t.pred id)
(* [Imap.find] rather than [adj]: no option is allocated *)
let degree map id = match Imap.find id map with s -> Iset.cardinal s | exception Not_found -> 0
let out_degree t id = degree t.succ id
let in_degree t id = degree t.pred id
let nodes t = Imap.bindings t.payload

let iter_with_succs t ~node ~succ =
  Imap.iter
    (fun id x ->
      node id x;
      Iset.iter succ (adj t.succ id))
    t.payload

let edges t =
  Imap.fold
    (fun src out acc -> Iset.fold (fun dst acc -> (src, dst) :: acc) out acc)
    t.succ []
  |> List.rev

let node_count t = Imap.cardinal t.payload
let edge_count t = List.length (edges t)

let max_id t =
  match Imap.max_binding_opt t.payload with Some (id, _) -> id | None -> -1
