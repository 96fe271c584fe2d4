open Overgen_adg
open Overgen_workload

type variant = {
  kernel : string;
  region : Ir.region;
  tuned : bool;
  unroll : int;
  dfg : Dfg.t;
  streams : Stream.t list;
  arrays : Stream.array_info list;
  port_slots : (int * Ir.aref list) list;
  iters : float;
  firings : float;
}

type compiled = {
  kname : string;
  suite : Suite.t;
  window_reuse : bool;
  needs_broadcast : bool;
  per_region : variant list list;
}

let default_unrolls = [ 1; 2; 4; 8; 16 ]

(* ---------- analysis helpers ---------- *)

let product f l = List.fold_left (fun acc x -> acc *. f x) 1.0 l
let avg_trips loops = product (fun (l : Ir.loop) -> Ir.trip_avg l.trip) loops

(* Port-FIFO (stationary) reuse: the maximal innermost run of loops whose
   induction variable does not appear in the subscript keeps the operand
   resident in the port (paper Section IV-B, "Stationary Reuse"). *)
let stationary_factor loops vars =
  let rec go acc = function
    | [] -> acc
    | (l : Ir.loop) :: rest ->
      if List.mem l.var vars then acc else go (acc *. Ir.trip_avg l.trip) rest
  in
  go 1.0 (List.rev loops)

let range_width loops terms =
  List.fold_left
    (fun acc (v, c) ->
      match List.find_opt (fun (l : Ir.loop) -> l.var = v) loops with
      | Some l -> acc + (abs c * (Ir.trip_max l.trip - 1))
      | None -> acc)
    0 terms

(* ---------- group collection ---------- *)

type group = {
  key : string;
  garray : string;
  terms : (string * int) list;  (* post-unroll subscript coefficients *)
  via : string option;          (* index array of an indirect access *)
  mutable slots : (int * int) list;
      (* distinct (lane-tag, constant) pairs, sorted: one port lane each.
         Loop-variant accesses keep one slot per unroll lane even when their
         addresses overlap — automatic unrolling does not exploit
         overlapped reuse (paper Q2); loop-invariant operands share a single
         slot (tag 0), which is ordinary invariant hoisting. *)
  mutable consts : int list;    (* distinct constant offsets, sorted *)
}

type store_class = Plain | Acc_inner of Op.t | Rec_acc of Op.t

let group_key ~array ~terms ~via =
  let ts =
    List.map (fun (v, c) -> v ^ ":" ^ string_of_int c) terms
    |> String.concat ","
  in
  array ^ "|" ^ ts ^ match via with Some s -> "@" ^ s | None -> ""

type collector = {
  tbl : (string, group) Hashtbl.t;
  mutable order : string list;  (* first-seen order, reversed *)
}

let collector () = { tbl = Hashtbl.create 16; order = [] }

(* [x] inserted before the first greater element of the sorted [l], which
   does not hold it: the list [List.sort compare (x :: l)] would give. *)
let rec insert_sorted x = function
  | y :: rest when compare y x < 0 -> y :: insert_sorted x rest
  | l -> x :: l

let collect c ~array ~terms ~via ~tag ~const =
  let key = group_key ~array ~terms ~via in
  let g =
    match Hashtbl.find_opt c.tbl key with
    | Some g -> g
    | None ->
      let g = { key; garray = array; terms; via; slots = []; consts = [] } in
      Hashtbl.add c.tbl key g;
      c.order <- key :: c.order;
      g
  in
  if not (List.mem (tag, const) g.slots) then
    g.slots <- insert_sorted (tag, const) g.slots;
  if not (List.mem const g.consts) then g.consts <- insert_sorted const g.consts;
  key

let groups_in_order c =
  List.rev_map (fun key -> Hashtbl.find c.tbl key) c.order

(* ---------- per-variant compilation ---------- *)

let compile_region (k : Ir.kernel) (region : Ir.region) ~tuned ~unroll =
  let dtype = k.dtype in
  let eb = Dtype.bytes dtype in
  let loops = region.loops in
  let iv = (Ir.innermost region).var in
  let iters = avg_trips loops in
  let arr_elems name =
    match List.assoc_opt name k.arrays with Some n -> n | None -> 1
  in
  let subst_aff a ~lane =
    if unroll = 1 then a
    else Ir.affine_subst_scaled a ~var:iv ~scale:unroll ~offset:lane
  in
  let subst_aref (r : Ir.aref) ~lane : Ir.aref =
    match r.index with
    | Ir.Direct a -> { r with index = Ir.Direct (subst_aff a ~lane) }
    | Ir.Indirect { idx_array; at } ->
      { r with index = Ir.Indirect { idx_array; at = subst_aff at ~lane } }
  in
  let parts_of_aref (r : Ir.aref) =
    match r.index with
    | Ir.Direct a -> (r.array, a.Ir.terms, None, a.Ir.const)
    | Ir.Indirect { idx_array; at } ->
      (r.array, at.Ir.terms, Some idx_array, at.Ir.const)
  in
  (* Classify each statement once (pre-substitution: the target's use of the
     innermost variable is unchanged by unrolling). *)
  let classify = function
    | Ir.Store _ | Ir.Reduce _ -> Plain
    | Ir.Accum (aref, op, _) -> (
      match aref.index with
      | Ir.Indirect _ -> Plain (* indirect RMW: treat as plain load+store *)
      | Ir.Direct a ->
        let vars = Ir.affine_vars a in
        if List.mem iv vars then
          let reduction =
            List.filter (fun (l : Ir.loop) -> not (List.mem l.var vars)) loops
          in
          if reduction = [] then Plain else Rec_acc op
        else Acc_inner op)
  in
  (* Phase A: collect load and store groups over all unroll lanes. *)
  let loadc = collector () and storec = collector () in
  let store_class = Hashtbl.create 8 in
  let collect_aref c ~lane aref =
    let array, terms, via, const = parts_of_aref aref in
    let tag = if List.mem_assoc iv terms then lane else 0 in
    collect c ~array ~terms ~via ~tag ~const
  in
  List.iter
    (fun stmt ->
      let cls = classify stmt in
      for lane = 0 to unroll - 1 do
        (* expression loads *)
        let expr =
          match stmt with
          | Ir.Store (_, e) | Ir.Accum (_, _, e) | Ir.Reduce (_, _, e) -> e
        in
        List.iter
          (fun aref -> ignore (collect_aref loadc ~lane (subst_aref aref ~lane)))
          (Ir.loads_of_expr expr);
        (* target *)
        match (stmt, cls) with
        | Ir.Store (aref, _), _ ->
          ignore (collect_aref storec ~lane (subst_aref aref ~lane))
        | Ir.Accum (aref, _, _), Acc_inner _ ->
          (* one write per reduction; the accumulator initializes from a
             one-shot read of the target *)
          ignore (collect_aref loadc ~lane (subst_aref aref ~lane));
          let key = collect_aref storec ~lane (subst_aref aref ~lane) in
          Hashtbl.replace store_class key cls
        | Ir.Accum (aref, _, _), (Rec_acc _ | Plain) ->
          let sa = subst_aref aref ~lane in
          ignore (collect_aref loadc ~lane sa);
          let key = collect_aref storec ~lane sa in
          Hashtbl.replace store_class key cls
        | Ir.Reduce _, _ -> ()
      done)
    region.body;
  (* Phase B: DFG inputs, one vector port per load group. *)
  let b = Dfg.Builder.create () in
  let load_groups = groups_in_order loadc in
  let input_ids = Hashtbl.create 16 in
  let operand_of = Hashtbl.create 32 in
  List.iter
    (fun g ->
      let vars = List.map fst g.terms in
      let stationary = stationary_factor loops vars in
      let id =
        Dfg.Builder.input b
          ~width_bytes:(List.length g.slots * eb)
          ~stated:(stationary > 1.0)
      in
      Hashtbl.replace input_ids g.key id;
      List.iteri
        (fun slot_idx (tag, const) ->
          Hashtbl.replace operand_of (g.key, tag, const) { Dfg.src = id; lane = slot_idx })
        g.slots)
    load_groups;
  let lookup ~lane aref =
    let array, terms, via, const = parts_of_aref aref in
    let tag = if List.mem_assoc iv terms then lane else 0 in
    let key = group_key ~array ~terms ~via in
    match Hashtbl.find_opt operand_of (key, tag, const) with
    | Some o -> o
    | None -> invalid_arg ("Compile: uncollected load " ^ Ir.aref_to_string aref)
  in
  let rec eval ~lane expr : Dfg.operand =
    match expr with
    | Ir.Load aref -> lookup ~lane (subst_aref aref ~lane)
    | Ir.Const v -> { Dfg.src = Dfg.Builder.const b v; lane = 0 }
    | Ir.Param p -> { Dfg.src = Dfg.Builder.const b ~name:p 1.0; lane = 0 }
    | Ir.Unop (op, e) ->
      { Dfg.src = Dfg.Builder.inst b op dtype [ eval ~lane e ]; lane = 0 }
    | Ir.Binop (op, x, y) ->
      { Dfg.src = Dfg.Builder.inst b op dtype [ eval ~lane x; eval ~lane y ]; lane = 0 }
  in
  let tree_combine op operands =
    (* balanced reduction tree; Sub-accumulation sums the terms *)
    let tree_op = if op = Op.Sub then Op.Add else op in
    let rec go = function
      | [] -> invalid_arg "Compile.tree_combine: empty"
      | [ x ] -> x
      | xs ->
        let rec pair = function
          | a :: bb :: rest ->
            { Dfg.src = Dfg.Builder.inst b tree_op dtype [ a; bb ]; lane = 0 }
            :: pair rest
          | [ a ] -> [ a ]
          | [] -> []
        in
        go (pair xs)
    in
    go operands
  in
  (* Phase C: evaluate bodies, recording store results per group+const. *)
  let store_results : ((string * int) * int, Dfg.operand) Hashtbl.t = Hashtbl.create 16 in
  let scalar_outputs = ref [] in
  List.iter
    (fun stmt ->
      let cls = classify stmt in
      match (stmt, cls) with
      | Ir.Store (aref, e), _ ->
        for lane = 0 to unroll - 1 do
          let res = eval ~lane e in
          let array, terms, via, const = parts_of_aref (subst_aref aref ~lane) in
          let tag = if List.mem_assoc iv terms then lane else 0 in
          Hashtbl.replace store_results ((group_key ~array ~terms ~via, tag), const) res
        done
      | Ir.Accum (aref, op, e), Acc_inner _ ->
        let lane_results =
          List.init unroll (fun lane -> eval ~lane e)
        in
        let combined = tree_combine op lane_results in
        let init = lookup ~lane:0 (subst_aref aref ~lane:0) in
        let acc =
          { Dfg.src = Dfg.Builder.inst b op dtype ~acc:true [ combined; init ];
            lane = 0 }
        in
        let array, terms, via, const = parts_of_aref (subst_aref aref ~lane:0) in
        ignore (List.mem_assoc iv terms);
        Hashtbl.replace store_results ((group_key ~array ~terms ~via, 0), const) acc
      | Ir.Accum (aref, op, e), (Rec_acc _ | Plain) ->
        for lane = 0 to unroll - 1 do
          let target = subst_aref aref ~lane in
          let old_v = lookup ~lane target in
          let res =
            { Dfg.src = Dfg.Builder.inst b op dtype [ old_v; eval ~lane e ]; lane = 0 }
          in
          let array, terms, via, const = parts_of_aref target in
          let tag = if List.mem_assoc iv terms then lane else 0 in
          Hashtbl.replace store_results ((group_key ~array ~terms ~via, tag), const) res
        done
      | Ir.Reduce (name, op, e), _ ->
        let lane_results = List.init unroll (fun lane -> eval ~lane e) in
        let combined = tree_combine op lane_results in
        let acc =
          { Dfg.src = Dfg.Builder.inst b op dtype ~acc:true [ combined ]; lane = 0 }
        in
        let out = Dfg.Builder.output b ~width_bytes:eb [ acc ] in
        scalar_outputs := (name, out) :: !scalar_outputs)
    region.body;
  (* Phase D: one output port per store group. *)
  let store_groups = groups_in_order storec in
  let output_ids = Hashtbl.create 8 in
  List.iter
    (fun g ->
      let operands =
        List.map
          (fun (tag, const) ->
            match Hashtbl.find_opt store_results ((g.key, tag), const) with
            | Some o -> o
            | None -> invalid_arg ("Compile: store without result " ^ g.key))
          g.slots
      in
      let id =
        Dfg.Builder.output b ~width_bytes:(List.length g.slots * eb) operands
      in
      Hashtbl.replace output_ids g.key id)
    store_groups;
  let dfg = Dfg.Builder.finish b in
  (* Phase E: streams with reuse annotations. *)
  let next_stream = ref 0 in
  let fresh () =
    let i = !next_stream in
    incr next_stream;
    i
  in
  let reuse_of g =
    let vars = List.map fst g.terms in
    let s = stationary_factor loops vars in
    let u = List.length g.slots in
    let denom = Float.max s (float_of_int unroll) in
    let traffic = iters *. float_of_int u /. denom in
    let footprint =
      match g.via with
      | Some _ -> arr_elems g.garray
      | None ->
        let width = range_width loops g.terms in
        let spread =
          match g.consts with
          | [] -> 0
          | cs -> List.fold_left max min_int cs - List.fold_left min max_int cs
        in
        min (arr_elems g.garray) (width + spread + 1)
    in
    { Stream.traffic; footprint; stationary = s }
  in
  let stride_of g =
    match g.consts with
    | _ :: _ :: _ ->
      let sorted = List.sort compare g.consts in
      let rec min_gap acc = function
        | a :: (bb :: _ as rest) -> min_gap (min acc (bb - a)) rest
        | [ _ ] | [] -> acc
      in
      max 1 (min_gap max_int sorted)
    | _ ->
      (* coefficient of the deepest loop that appears in the subscript *)
      let rec deepest = function
        | [] -> 1
        | (l : Ir.loop) :: rest ->
          let c = List.assoc_opt l.var g.terms in
          (match c with
           | Some c when c <> 0 -> abs c / max 1 (if l.var = iv then unroll else 1)
           | Some _ | None -> deepest rest)
      in
      max 1 (deepest (List.rev loops))
  in
  let dims_of g = Overgen_util.Stats.clamp_int ~lo:1 ~hi:3 (List.length g.terms) in
  let partitioned_of g =
    match loops with
    | [] -> true
    | outer :: _ -> List.mem_assoc outer.Ir.var g.terms
  in
  let access_of g =
    match g.via with
    | Some via -> Stream.Indirect { via }
    | None -> Stream.Linear { stride = stride_of g }
  in
  (* Recurrence info for Rec_acc store groups (and their partner reads). *)
  let rec_info_of g =
    let vars = List.map fst g.terms in
    let reductions =
      List.filter (fun (l : Ir.loop) -> not (List.mem l.var vars)) loops
    in
    match List.rev reductions with
    | [] -> None
    | innermost_red :: _ ->
      let recurs = product (fun (l : Ir.loop) -> Ir.trip_avg l.trip) reductions in
      let red_pos =
        let rec idx i = function
          | [] -> i
          | (l : Ir.loop) :: rest -> if l.var = innermost_red.var then i else idx (i + 1) rest
        in
        idx 0 loops
      in
      let shallow =
        List.filteri (fun i (l : Ir.loop) -> i < red_pos && List.mem l.var vars) loops
      in
      let prod_shallow = product (fun (l : Ir.loop) -> float_of_int (Ir.trip_max l.trip)) shallow in
      let reuse = reuse_of g in
      let concurrent =
        max 1 (int_of_float (float_of_int reuse.footprint /. Float.max 1.0 prod_shallow))
      in
      let mem_traffic = reuse.traffic /. Float.max 1.0 recurs in
      Some { Stream.concurrent; recurs; mem_traffic }
  in
  let rec_store_keys =
    Hashtbl.fold
      (fun key cls acc -> match cls with Rec_acc _ -> key :: acc | Acc_inner _ | Plain -> acc)
      store_class []
  in
  let read_streams =
    List.map
      (fun g ->
        let recurrence =
          if List.mem g.key rec_store_keys then
            match Hashtbl.find_opt storec.tbl g.key with
            | Some sg -> rec_info_of sg
            | None -> None
          else None
        in
        {
          Stream.id = fresh ();
          array = g.garray;
          dir = Stream.Read;
          access = access_of g;
          dims = dims_of g;
          lanes = List.length g.slots;
          elem_bytes = eb;
          port = Some (Hashtbl.find input_ids g.key);
          partitioned = partitioned_of g;
          reuse = reuse_of g;
          recurrence;
        })
      load_groups
  in
  (* Engine-internal index streams of indirect accesses. *)
  let index_streams =
    List.filter_map
      (fun g ->
        match g.via with
        | None -> None
        | Some via ->
          let idx_g = { g with garray = via; via = None; key = g.key ^ "#idx" } in
          Some
            {
              Stream.id = fresh ();
              array = via;
              dir = Stream.Read;
              access = Stream.Linear { stride = stride_of idx_g };
              dims = dims_of idx_g;
              lanes = List.length g.slots;
              elem_bytes = eb;
              port = None;
              partitioned = partitioned_of idx_g;
              reuse = reuse_of idx_g;
              recurrence = None;
            })
      load_groups
  in
  let write_streams =
    List.map
      (fun g ->
        let recurrence =
          match Hashtbl.find_opt store_class g.key with
          | Some (Rec_acc _) -> rec_info_of g
          | Some (Acc_inner _ | Plain) | None -> None
        in
        {
          Stream.id = fresh ();
          array = g.garray;
          dir = Stream.Write;
          access = access_of g;
          dims = dims_of g;
          lanes = List.length g.slots;
          elem_bytes = eb;
          port = Some (Hashtbl.find output_ids g.key);
          partitioned = partitioned_of g;
          reuse = reuse_of g;
          recurrence;
        })
      store_groups
  in
  let aref_of_slot g (_, const) : Ir.aref =
    match g.via with
    | Some via ->
      { array = g.garray;
        index = Ir.Indirect { idx_array = via; at = { Ir.terms = g.terms; const } } }
    | None -> { array = g.garray; index = Ir.Direct { Ir.terms = g.terms; const } }
  in
  let port_slots =
    List.map
      (fun g -> (Hashtbl.find input_ids g.key, List.map (aref_of_slot g) g.slots))
      load_groups
    @ List.map
        (fun g -> (Hashtbl.find output_ids g.key, List.map (aref_of_slot g) g.slots))
        store_groups
    @ List.map
        (fun (name, out) ->
          (out, [ { Ir.array = name; index = Ir.Direct (Ir.affine_const 0) } ]))
        !scalar_outputs
  in
  let scalar_streams =
    List.map
      (fun (name, out) ->
        {
          Stream.id = fresh ();
          array = name;
          dir = Stream.Write;
          access = Stream.Linear { stride = 0 };
          dims = 1;
          lanes = 1;
          elem_bytes = eb;
          port = Some out;
          partitioned = false;
          reuse = { Stream.traffic = 1.0; footprint = 1; stationary = iters };
          recurrence = None;
        })
      !scalar_outputs
  in
  let streams = read_streams @ index_streams @ write_streams @ scalar_streams in
  let touched =
    List.sort_uniq String.compare (List.map (fun (s : Stream.t) -> s.array) streams)
  in
  let written =
    List.filter_map
      (fun (s : Stream.t) ->
        match s.dir with Stream.Write -> Some s.array | Stream.Read -> None)
      streams
  in
  let arrays =
    List.map
      (fun name ->
        {
          Stream.name;
          elems = arr_elems name;
          elem_bytes = eb;
          read_only = not (List.mem name written);
        })
      touched
  in
  {
    kernel = k.name;
    region;
    tuned;
    unroll;
    dfg;
    streams;
    arrays;
    port_slots;
    iters;
    firings = iters /. float_of_int unroll;
  }

let widest = function
  | [] -> invalid_arg "Compile.widest: no variants"
  | l -> List.fold_left (fun best v -> if v.unroll > best.unroll then v else best) (List.hd l) l

let compile ?(tuned = false) (k : Ir.kernel) =
  Overgen_fault.Fault.(point Points.mdfg_compile);
  let regions = Kernels.regions_for ~tuned k in
  let per_region =
    List.map
      (fun (r : Ir.region) ->
        let inner = Ir.trip_max (Ir.innermost r).trip in
        let us = List.filter (fun u -> u <= inner) default_unrolls in
        let us = if us = [] then [ 1 ] else us in
        List.map (fun unroll -> compile_region k r ~tuned ~unroll) us)
      regions
  in
  {
    kname = k.name;
    suite = k.suite;
    window_reuse = k.window_reuse;
    needs_broadcast = k.needs_broadcast;
    per_region;
  }

type summary = {
  n_in_ports : int;
  n_out_ports : int;
  n_arrays : int;
  n_mul : int;
  n_add : int;
  n_div : int;
}

let summarize c =
  let bests = List.map widest c.per_region in
  let count f =
    List.fold_left (fun acc v -> acc + f v) 0 bests
  in
  let ops_matching v pred =
    List.fold_left
      (fun acc (op, n) -> if pred op then acc + n else acc)
      0
      (Dfg.op_histogram v.dfg)
  in
  let arrays =
    List.concat_map (fun v -> List.map (fun (a : Stream.array_info) -> a.name) v.arrays) bests
    |> List.sort_uniq String.compare
  in
  {
    n_in_ports = count (fun v -> List.length (Dfg.inputs v.dfg));
    n_out_ports = count (fun v -> List.length (Dfg.outputs v.dfg));
    n_arrays = List.length arrays;
    n_mul = count (fun v -> ops_matching v Op.is_mul);
    n_add =
      count (fun v ->
          ops_matching v (fun op ->
              Op.is_add op || op = Op.Min || op = Op.Max || op = Op.Abs
              || op = Op.Shl || op = Op.Shr));
    n_div = count (fun v -> ops_matching v (fun op -> Op.is_div op || op = Op.Sqrt));
  }

(* ---------- content hashing ---------- *)

(* A canonical textual dump of everything the spatial scheduler consumes:
   the DFG (nodes, kinds, operands), the streams with their reuse
   annotations, the array nodes and the port slots.  Floats are printed in
   hex notation so the dump is exact.  The digest of this dump is the
   content address of the variant in the compile-service schedule cache. *)

let dump_variant buf (v : variant) =
  Printf.bprintf buf "variant %s region=%s tuned=%b unroll=%d iters=%h firings=%h\n"
    v.kernel v.region.Ir.rname v.tuned v.unroll v.iters v.firings;
  List.iter
    (fun (n : Dfg.node) ->
      (match n.kind with
      | Dfg.Inst { op; dtype; acc } ->
        Printf.bprintf buf "n%d inst %s %s acc=%b" n.id (Op.to_string op)
          (Dtype.to_string dtype) acc
      | Dfg.Const { value; name } ->
        Printf.bprintf buf "n%d const %h %s" n.id value
          (Option.value name ~default:"-")
      | Dfg.Input { width_bytes; stated } ->
        Printf.bprintf buf "n%d in %d stated=%b" n.id width_bytes stated
      | Dfg.Output { width_bytes } -> Printf.bprintf buf "n%d out %d" n.id width_bytes);
      List.iter (fun (o : Dfg.operand) -> Printf.bprintf buf " %d.%d" o.src o.lane)
        n.operands;
      Buffer.add_char buf '\n')
    (Dfg.nodes v.dfg);
  List.iter
    (fun (s : Stream.t) ->
      Printf.bprintf buf "s%d %s %s %s dims=%d lanes=%d eb=%d port=%s part=%b %h/%d/%h"
        s.id s.array
        (match s.dir with Stream.Read -> "r" | Stream.Write -> "w")
        (match s.access with
        | Stream.Linear { stride } -> Printf.sprintf "lin%d" stride
        | Stream.Indirect { via } -> "ind:" ^ via)
        s.dims s.lanes s.elem_bytes
        (match s.port with Some p -> string_of_int p | None -> "-")
        s.partitioned s.reuse.traffic s.reuse.footprint s.reuse.stationary;
      (match s.recurrence with
      | Some r -> Printf.bprintf buf " rec=%d/%h/%h" r.concurrent r.recurs r.mem_traffic
      | None -> ());
      Buffer.add_char buf '\n')
    v.streams;
  List.iter
    (fun (a : Stream.array_info) ->
      Printf.bprintf buf "a %s %d %d ro=%b\n" a.name a.elems a.elem_bytes a.read_only)
    v.arrays;
  List.iter
    (fun (port, refs) ->
      Printf.bprintf buf "p%d" port;
      List.iter (fun r -> Printf.bprintf buf " %s" (Ir.aref_to_string r)) refs;
      Buffer.add_char buf '\n')
    v.port_slots

let hash_variant v =
  let buf = Buffer.create 1024 in
  dump_variant buf v;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let hash_compiled c =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "compiled %s %s wr=%b bc=%b\n" c.kname (Suite.to_string c.suite)
    c.window_reuse c.needs_broadcast;
  List.iter (List.iter (dump_variant buf)) c.per_region;
  Digest.to_hex (Digest.string (Buffer.contents buf))
