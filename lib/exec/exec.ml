open Overgen_adg
open Overgen_workload
open Overgen_mdfg
module Rng = Overgen_util.Rng

type env = (string, float array) Hashtbl.t

let get env name : float array =
  match Hashtbl.find_opt env name with
  | Some a -> a
  | None ->
    let a = Array.make 1 0.0 in
    Hashtbl.add env name a;
    a

let copy_env env =
  let e = Hashtbl.create (Hashtbl.length env) in
  Hashtbl.iter (fun k v -> Hashtbl.add e k (Array.copy v)) env;
  e

(* Arrays used as indirection indices, with the array they index. *)
let index_arrays (k : Ir.kernel) =
  List.concat_map
    (fun (r : Ir.region) ->
      List.concat_map
        (fun stmt ->
          List.filter_map
            (fun (a : Ir.aref) ->
              match a.index with
              | Ir.Indirect { idx_array; _ } -> Some (idx_array, a.array)
              | Ir.Direct _ -> None)
            (Ir.stmt_loads stmt))
        r.body)
    (k.regions @ match k.og_tuning with Some t -> t.regions | None -> [])
  |> List.sort_uniq compare

let make_env ?(seed = 42) (k : Ir.kernel) =
  let rng = Rng.create seed in
  let env = Hashtbl.create 8 in
  let idx_arrays = index_arrays k in
  List.iter
    (fun (name, elems) ->
      let arr =
        match List.assoc_opt name idx_arrays with
        | Some target ->
          let target_elems =
            match List.assoc_opt target k.arrays with Some n -> n | None -> 1
          in
          Array.init elems (fun _ -> float_of_int (Rng.int rng target_elems))
        | None -> Array.init elems (fun _ -> 1.0 +. Rng.float rng 1.0)
      in
      Hashtbl.add env name arr)
    k.arrays;
  env

(* ------------------------------------------------------------------ *)
(* Shared op semantics                                                 *)
(* ------------------------------------------------------------------ *)

let apply2 op a b =
  match op with
  | Op.Add -> a +. b
  | Op.Sub -> a -. b
  | Op.Mul -> a *. b
  | Op.Div -> if b = 0.0 then 0.0 else a /. b
  | Op.Min -> Float.min a b
  | Op.Max -> Float.max a b
  | Op.Shl -> float_of_int (int_of_float a lsl (int_of_float b land 63))
  | Op.Shr -> float_of_int (int_of_float a lsr (int_of_float b land 63))
  | Op.Band -> float_of_int (int_of_float a land int_of_float b)
  | Op.Bor -> float_of_int (int_of_float a lor int_of_float b)
  | Op.Bxor -> float_of_int (int_of_float a lxor int_of_float b)
  | Op.Cmp_lt -> if a < b then 1.0 else 0.0
  | Op.Cmp_eq -> if a = b then 1.0 else 0.0
  | Op.Acc -> a +. b
  | Op.Sqrt | Op.Abs | Op.Select -> invalid_arg "apply2: not binary"

let apply1 op a =
  match op with
  | Op.Sqrt -> sqrt (Float.abs a)
  | Op.Abs -> Float.abs a
  | _ -> invalid_arg "apply1: not unary"

(* ------------------------------------------------------------------ *)
(* Golden reference: direct loop-nest interpretation                   *)
(* ------------------------------------------------------------------ *)

let eval_affine (a : Ir.affine) idx =
  List.fold_left
    (fun acc (v, c) ->
      acc + (c * (match List.assoc_opt v idx with Some x -> x | None -> 0)))
    a.const a.terms

let load_ref env (a : Ir.aref) idx =
  match a.index with
  | Ir.Direct aff ->
    let arr = get env a.array in
    arr.(eval_affine aff idx mod Array.length arr)
  | Ir.Indirect { idx_array; at } ->
    let iarr = get env idx_array in
    let i = int_of_float iarr.(eval_affine at idx mod Array.length iarr) in
    let arr = get env a.array in
    arr.(i mod Array.length arr)

let store_ref env (a : Ir.aref) idx v =
  match a.index with
  | Ir.Direct aff ->
    let arr = get env a.array in
    arr.(eval_affine aff idx mod Array.length arr) <- v
  | Ir.Indirect { idx_array; at } ->
    let iarr = get env idx_array in
    let i = int_of_float iarr.(eval_affine at idx mod Array.length iarr) in
    let arr = get env a.array in
    arr.(i mod Array.length arr) <- v

let rec eval_expr env idx (e : Ir.expr) =
  match e with
  | Ir.Load a -> load_ref env a idx
  | Ir.Const v -> v
  | Ir.Param _ -> 1.0
  | Ir.Unop (op, x) -> apply1 op (eval_expr env idx x)
  | Ir.Binop (op, x, y) -> apply2 op (eval_expr env idx x) (eval_expr env idx y)

let run_reference env (_k : Ir.kernel) (r : Ir.region) =
  let rec loops idx = function
    | [] ->
      List.iter
        (fun stmt ->
          match stmt with
          | Ir.Store (a, e) -> store_ref env a idx (eval_expr env idx e)
          | Ir.Accum (a, op, e) ->
            store_ref env a idx (apply2 op (load_ref env a idx) (eval_expr env idx e))
          | Ir.Reduce (name, op, e) ->
            let cell = get env name in
            cell.(0) <- apply2 op cell.(0) (eval_expr env idx e))
        r.body
    | (l : Ir.loop) :: rest ->
      for i = 0 to Ir.trip_max l.trip - 1 do
        loops ((l.var, i) :: idx) rest
      done
  in
  loops [] r.loops

(* ------------------------------------------------------------------ *)
(* Decoupled replay of a compiled variant                              *)
(* ------------------------------------------------------------------ *)

let run_decoupled env (v : Compile.variant) =
  let r = v.region in
  let iv = (Ir.innermost r).var in
  let inner_trip = Ir.trip_max (Ir.innermost r).trip in
  if inner_trip mod v.unroll <> 0 then
    invalid_arg "Exec.run_decoupled: unroll must divide the innermost trip";
  let dfg = v.dfg in
  let n = Dfg.size dfg in
  let values = Array.make n 0.0 in
  let port_lanes = Array.make n [||] in
  let acc_state = Array.make n 0.0 in
  let nodes = Array.of_list (Dfg.nodes dfg) in
  let is_input =
    Array.map (fun (nd : Dfg.node) -> match nd.kind with Dfg.Input _ -> true | _ -> false) nodes
  in
  (* input ports with their slots; each port's lanes are refilled in place *)
  let inputs =
    List.filter_map
      (fun (port, slots) ->
        if is_input.(port) then begin
          port_lanes.(port) <- Array.make (List.length slots) 0.0;
          Some (port_lanes.(port), Array.of_list slots)
        end
        else None)
      v.port_slots
  in
  let operand (o : Dfg.operand) =
    if is_input.(o.src) then
      let lanes = port_lanes.(o.src) in
      if o.lane < Array.length lanes then lanes.(o.lane) else 0.0
    else values.(o.src)
  in
  (* each output slot with the operand that feeds it; a slot past the
     port's operands is never stored *)
  let outputs =
    List.concat_map
      (fun (port, slots) ->
        let node = Dfg.node dfg port in
        match node.kind with
        | Dfg.Output _ ->
          List.concat
            (List.mapi
               (fun lane a ->
                 match List.nth_opt node.operands lane with
                 | Some o -> [ (a, o) ]
                 | None -> [])
               slots)
        | Dfg.Input _ | Dfg.Const _ | Dfg.Inst _ -> [])
      v.port_slots
  in
  let fire idx ~first_block =
    (* gather input ports *)
    List.iter
      (fun (lanes, slots) ->
        Array.iteri (fun lane a -> lanes.(lane) <- load_ref env a idx) slots)
      inputs;
    (* evaluate nodes in id (topological) order *)
    Array.iter
      (fun (node : Dfg.node) ->
        match node.kind with
        | Dfg.Const { value; _ } -> values.(node.id) <- value
        | Dfg.Input _ | Dfg.Output _ -> ()
        | Dfg.Inst { op; acc = true; _ } ->
          let combined, init =
            match node.operands with
            | [ c ] -> (operand c, 0.0)
            | [ c; init ] -> (operand c, operand init)
            | _ -> invalid_arg "acc node arity"
          in
          if first_block then acc_state.(node.id) <- init;
          acc_state.(node.id) <- apply2 op acc_state.(node.id) combined;
          values.(node.id) <- acc_state.(node.id)
        | Dfg.Inst { op; acc = false; _ } -> (
          match node.operands with
          | [ a ] -> values.(node.id) <- apply1 op (operand a)
          | [ a; b ] -> values.(node.id) <- apply2 op (operand a) (operand b)
          | _ -> invalid_arg "inst arity"))
      nodes;
    (* commit output ports *)
    List.iter (fun (a, o) -> store_ref env a idx (operand o)) outputs
  in
  (* iterate the blocked iteration space *)
  let rec loops idx = function
    | [] -> assert false
    | [ (l : Ir.loop) ] ->
      assert (l.var = iv);
      for b = 0 to (inner_trip / v.unroll) - 1 do
        fire ((iv, b) :: idx) ~first_block:(b = 0)
      done
    | (l : Ir.loop) :: rest ->
      for i = 0 to Ir.trip_max l.trip - 1 do
        loops ((l.var, i) :: idx) rest
      done
  in
  loops [] r.loops

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let max_abs_diff a b =
  Hashtbl.fold
    (fun name arr acc ->
      match Hashtbl.find_opt b name with
      | None -> acc
      | Some brr ->
        let m = ref acc in
        Array.iteri
          (fun i v ->
            if i < Array.length brr then begin
              let rel = Float.abs (v -. brr.(i)) /. (1.0 +. Float.abs brr.(i)) in
              if rel > !m then m := rel
            end)
          arr;
        !m)
    a 0.0

let check ?(seed = 42) ?(unroll = 4) ?(tuned = false) (k : Ir.kernel) =
  let regions = Kernels.regions_for ~tuned k in
  let env_ref = make_env ~seed k in
  (* the decoupled run gets its own copy of every array a region writes,
     and shares the read-only ones *)
  let written =
    List.concat_map
      (fun (r : Ir.region) ->
        List.map
          (function
            | Ir.Store (a, _) | Ir.Accum (a, _, _) -> a.Ir.array
            | Ir.Reduce (name, _, _) -> name)
          r.body)
      regions
    |> List.sort_uniq String.compare
  in
  let env_dec = Hashtbl.copy env_ref in
  List.iter
    (fun name ->
      Option.iter
        (fun a -> Hashtbl.replace env_dec name (Array.copy a))
        (Hashtbl.find_opt env_ref name))
    written;
  let rec largest_divisor u trip =
    if u <= 1 then 1 else if trip mod u = 0 then u else largest_divisor (u - 1) trip
  in
  try
    List.iter
      (fun (r : Ir.region) ->
        run_reference env_ref k r;
        let trip = Ir.trip_max (Ir.innermost r).trip in
        let u = largest_divisor (min unroll trip) trip in
        let v = Compile.compile_region k r ~tuned ~unroll:u in
        run_decoupled env_dec v)
      regions;
    let d = max_abs_diff env_ref env_dec in
    if d < 1e-6 then Ok ()
    else Error (Printf.sprintf "%s: max relative difference %.3e" k.name d)
  with
  | Invalid_argument m -> Error (k.name ^ ": " ^ m)
  | Failure m -> Error (k.name ^ ": " ^ m)
