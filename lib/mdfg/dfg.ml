open Overgen_adg

type operand = { src : int; lane : int }

type kind =
  | Inst of { op : Op.t; dtype : Dtype.t; acc : bool }
  | Const of { value : float; name : string option }
  | Input of { width_bytes : int; stated : bool }
  | Output of { width_bytes : int }

type node = { id : int; kind : kind; operands : operand list }

type t = { arr : node array }

let nodes t = Array.to_list t.arr
let node t id = t.arr.(id)
let size t = Array.length t.arr

let insts t =
  List.filter
    (fun n ->
      match n.kind with
      | Inst _ -> true
      | Const _ | Input _ | Output _ -> false)
    (nodes t)

let inputs t =
  List.filter
    (fun n ->
      match n.kind with
      | Input _ -> true
      | Inst _ | Const _ | Output _ -> false)
    (nodes t)

let outputs t =
  List.filter
    (fun n ->
      match n.kind with
      | Output _ -> true
      | Inst _ | Const _ | Input _ -> false)
    (nodes t)

let inst_count t = List.length (insts t)

let op_histogram t =
  let histo = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match n.kind with
      | Inst { op; _ } ->
        Hashtbl.replace histo op (1 + Option.value ~default:0 (Hashtbl.find_opt histo op))
      | Const _ | Input _ | Output _ -> ())
    (nodes t);
  Hashtbl.fold (fun op n acc -> (op, n) :: acc) histo []
  |> List.sort (fun (a, _) (b, _) -> Op.compare a b)

let depth t =
  let d = Array.make (size t) 0 in
  Array.iter
    (fun n ->
      let in_depth =
        List.fold_left (fun acc o -> Int.max acc d.(o.src)) 0 n.operands
      in
      let lat =
        match n.kind with
        | Inst { op; dtype; _ } -> Op.latency op dtype
        | Const _ -> 0
        | Input _ | Output _ -> 1
      in
      d.(n.id) <- in_depth + lat)
    t.arr;
  Array.fold_left Int.max 0 d

let validate t =
  let err = ref None in
  Array.iteri
    (fun i n ->
      if !err = None then begin
        if n.id <> i then err := Some (Printf.sprintf "node %d has id %d" i n.id);
        List.iter
          (fun o ->
            if o.src >= n.id then
              err := Some (Printf.sprintf "node %d reads forward operand %d" n.id o.src)
            else
              match t.arr.(o.src).kind with
              | Output _ ->
                err := Some (Printf.sprintf "node %d reads output node %d" n.id o.src)
              | Inst _ | Const _ | Input _ -> ())
          n.operands;
        match n.kind with
        | Inst { op; acc; _ } ->
          let expect = if acc then List.length n.operands else Op.arity op in
          (* acc-insts fold an arbitrary lane tree; others must match arity *)
          if List.length n.operands <> expect then
            err :=
              Some
                (Printf.sprintf "node %d: op %s wants %d operands, has %d" n.id
                   (Op.to_string op) expect (List.length n.operands))
        | Const _ | Input _ ->
          if n.operands <> [] then
            err := Some (Printf.sprintf "leaf node %d has operands" n.id)
        | Output _ ->
          if n.operands = [] then
            err := Some (Printf.sprintf "output node %d collects nothing" n.id)
      end)
    t.arr;
  match !err with None -> Ok () | Some e -> Error e

module Builder = struct
  type dfg = t [@@warning "-34"]

  type t = {
    mutable rev_nodes : node list;
    mutable next : int;
    cse : (kind * operand list, int) Hashtbl.t;
  }

  let create () = { rev_nodes = []; next = 0; cse = Hashtbl.create 64 }

  let push b kind operands =
    let id = b.next in
    b.next <- id + 1;
    b.rev_nodes <- { id; kind; operands } :: b.rev_nodes;
    id

  let input b ~width_bytes ~stated = push b (Input { width_bytes; stated }) []

  let output b ~width_bytes operands = push b (Output { width_bytes }) operands

  let const b ?name value =
    let kind = Const { value; name } in
    match Hashtbl.find_opt b.cse (kind, []) with
    | Some id -> id
    | None ->
      let id = push b kind [] in
      Hashtbl.add b.cse (kind, []) id;
      id

  let inst b op dtype ?(acc = false) operands =
    let kind = Inst { op; dtype; acc } in
    match Hashtbl.find_opt b.cse (kind, operands) with
    | Some id -> id
    | None ->
      let id = push b kind operands in
      Hashtbl.add b.cse (kind, operands) id;
      id

  let finish b = { arr = Array.of_list (List.rev b.rev_nodes) }
end
