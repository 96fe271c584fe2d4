type id = int

type t = { g : Comp.t Digraph.t; next_id : int }

let empty = { g = Digraph.empty; next_id = 0 }

let add t comp =
  let id = t.next_id in
  ({ g = Digraph.add_node t.g id comp; next_id = id + 1 }, id)

let is_fabric = function
  | Comp.Pe _ | Comp.Switch _ -> true
  | Comp.In_port _ | Comp.Out_port _ | Comp.Engine _ -> false

let edge_legal src dst =
  match (src, dst) with
  | Comp.Engine _, Comp.In_port _ -> true
  | Comp.In_port _, (Comp.Pe _ | Comp.Switch _) -> true
  | (Comp.Pe _ | Comp.Switch _), (Comp.Pe _ | Comp.Switch _) -> true
  | (Comp.Pe _ | Comp.Switch _), Comp.Out_port _ -> true
  | Comp.Out_port _, Comp.Engine _ -> true
  | _, _ -> false

let comp t id = Digraph.find t.g id
let comp_exn t id = Digraph.find_exn t.g id

let add_edge t src dst =
  let cs = comp_exn t src and cd = comp_exn t dst in
  if not (edge_legal cs cd) then
    invalid_arg
      (Printf.sprintf "Adg.add_edge: illegal %s->%s" (Comp.kind_name cs)
         (Comp.kind_name cd));
  { t with g = Digraph.add_edge t.g src dst }

let remove_edge t src dst = { t with g = Digraph.remove_edge t.g src dst }
let remove_node t id = { t with g = Digraph.remove_node t.g id }
let set_comp t id c = { t with g = Digraph.set_node t.g id c }
let mem t id = Digraph.mem t.g id
let mem_edge t src dst = Digraph.mem_edge t.g src dst
let succs t id = Digraph.succs t.g id
let preds t id = Digraph.preds t.g id
let out_degree t id = Digraph.out_degree t.g id
let in_degree t id = Digraph.in_degree t.g id
let iter_with_succs t ~node ~succ = Digraph.iter_with_succs t.g ~node ~succ
let nodes t = Digraph.nodes t.g
let edges t = Digraph.edges t.g
let max_id t = Digraph.max_id t.g
let node_count t = Digraph.node_count t.g
let edge_count t = Digraph.edge_count t.g

let pes t =
  List.filter_map
    (function id, Comp.Pe pe -> Some (id, pe) | _ -> None)
    (nodes t)

let switches t =
  List.filter_map
    (function id, Comp.Switch _ -> Some id | _ -> None)
    (nodes t)

let in_ports t =
  List.filter_map
    (function id, Comp.In_port p -> Some (id, p) | _ -> None)
    (nodes t)

let out_ports t =
  List.filter_map
    (function id, Comp.Out_port p -> Some (id, p) | _ -> None)
    (nodes t)

let engines t =
  List.filter_map
    (function id, Comp.Engine e -> Some (id, e) | _ -> None)
    (nodes t)

let engines_of_kind t kind =
  List.filter (fun (_, (e : Comp.engine)) -> e.kind = kind) (engines t)

let switch_radix t id = max (in_degree t id) (out_degree t id)

let avg_switch_radix t =
  match switches t with
  | [] -> 0.0
  | sws ->
    let total = List.fold_left (fun acc id -> acc + switch_radix t id) 0 sws in
    float_of_int total /. float_of_int (List.length sws)

(* Reachability over fabric nodes from a set of sources, following edges
   forward; ports are traversed one step. *)
let reachable_from t sources =
  let visited = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.replace visited id ();
      List.iter go (succs t id)
    end
  in
  List.iter go sources;
  visited

let validate t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun (src, dst) ->
      let cs = comp_exn t src and cd = comp_exn t dst in
      if not (edge_legal cs cd) then
        err "illegal edge %d(%s) -> %d(%s)" src (Comp.kind_name cs) dst
          (Comp.kind_name cd))
    (edges t);
  List.iter
    (fun (id, c) ->
      let ins = in_degree t id and outs = out_degree t id in
      match c with
      | Comp.Pe _ ->
        if ins = 0 then err "pe %d has no inputs" id;
        if outs = 0 then err "pe %d has no outputs" id
      | Comp.Switch _ ->
        if ins = 0 || outs = 0 then err "switch %d is dangling" id
      | Comp.In_port _ ->
        if ins = 0 then err "in-port %d not fed by any engine" id;
        if outs = 0 then err "in-port %d feeds nothing" id
      | Comp.Out_port _ ->
        if ins = 0 then err "out-port %d receives nothing" id;
        if outs = 0 then err "out-port %d drains to no engine" id
      | Comp.Engine _ ->
        if ins = 0 && outs = 0 then err "engine %d disconnected" id)
    (nodes t);
  (* Every PE must be reachable from an input port (so it can receive
     operands) and must reach an output port. *)
  let ip_ids = List.map fst (in_ports t) in
  let reach = reachable_from t ip_ids in
  List.iter
    (fun (id, _) ->
      if not (Hashtbl.mem reach id) then
        err "pe %d unreachable from any input port" id)
    (pes t);
  match !errs with [] -> Ok () | l -> Error (List.rev l)

type stats = {
  n_pe : int;
  n_switch : int;
  avg_radix : float;
  int_add : int;
  int_mul : int;
  int_div : int;
  flt_add : int;
  flt_mul : int;
  flt_div : int;
  flt_sqrt : int;
  spad_caps : int list;
  spad_bws : int list;
  spad_indirect : bool list;
  n_gen : int;
  n_rec : int;
  n_reg : int;
  in_port_bw : int;
  out_port_bw : int;
}

let stats t =
  let pes = pes t in
  let count_cap f =
    List.length
      (List.filter (fun (_, (pe : Comp.pe)) -> Op.Cap.exists f pe.caps) pes)
  in
  let is_int dt = not (Dtype.is_float dt) in
  let spads = engines_of_kind t Comp.Spad in
  {
    n_pe = List.length pes;
    n_switch = List.length (switches t);
    avg_radix = avg_switch_radix t;
    int_add = count_cap (fun (op, dt) -> Op.is_add op && is_int dt);
    int_mul = count_cap (fun (op, dt) -> Op.is_mul op && is_int dt);
    int_div = count_cap (fun (op, dt) -> Op.is_div op && is_int dt);
    flt_add = count_cap (fun (op, dt) -> Op.is_add op && Dtype.is_float dt);
    flt_mul = count_cap (fun (op, dt) -> Op.is_mul op && Dtype.is_float dt);
    flt_div = count_cap (fun (op, dt) -> Op.is_div op && Dtype.is_float dt);
    flt_sqrt = count_cap (fun (op, dt) -> op = Op.Sqrt && Dtype.is_float dt);
    spad_caps = List.map (fun (_, (e : Comp.engine)) -> e.capacity) spads;
    spad_bws = List.map (fun (_, (e : Comp.engine)) -> e.bandwidth) spads;
    spad_indirect = List.map (fun (_, (e : Comp.engine)) -> e.indirect) spads;
    n_gen = List.length (engines_of_kind t Comp.Gen);
    n_rec = List.length (engines_of_kind t Comp.Rec);
    n_reg = List.length (engines_of_kind t Comp.Reg);
    in_port_bw =
      List.fold_left (fun acc (_, (p : Comp.port)) -> acc + p.width_bytes) 0
        (in_ports t);
    out_port_bw =
      List.fold_left (fun acc (_, (p : Comp.port)) -> acc + p.width_bytes) 0
        (out_ports t);
  }

let to_string t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (id, c) ->
      Buffer.add_string buf
        (Printf.sprintf "%3d %-24s -> [%s]\n" id (Comp.describe c)
           (String.concat "," (List.map string_of_int (succs t id)))))
    (nodes t);
  Buffer.contents buf
