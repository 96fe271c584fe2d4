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

(* ---------- access groups ---------- *)

(* An access group: the accesses of one array with the same post-unroll
   subscript terms and index array, which differ only in their constant.
   Each group is one vector port per side (loads, stores).  Under
   [Ir.affine_subst_scaled] neither an access's group nor whether it uses
   the innermost variable depends on the unroll lane: lane [l] only adds
   [step * l] to the constant.  So every access is resolved once per
   variant, and the per-lane work is integer arithmetic on its rank. *)
type group = {
  gid : int;
  garray : string;
  terms : (string * int) list;  (* post-unroll subscript coefficients *)
  via : string option;          (* index array of an indirect access *)
  lanes : int;
      (* the unroll degree when the terms use the innermost variable, else
         1.  Loop-variant accesses keep one slot per unroll lane even when
         their addresses overlap — automatic unrolling does not exploit
         overlapped reuse (paper Q2); loop-invariant operands share a single
         slot, which is ordinary invariant hoisting. *)
  step : int;  (* constant added per lane; a function of [terms] *)
  mutable recur : bool;  (* the last accumulation into it is a recurrence *)
}

(* One access on one side, at its lane-0 constant [base]. *)
type site = { g : group; base : int; mutable rank : int }

(* A side's port of group [g] has [lanes] times as many slots as distinct
   bases: the distinct (lane, constant) pairs in ascending order, so
   lane-major, then base.  A site at lane [l] is in slot
   [l * (number of bases) + rank] ([rank] when [lanes] is 1). *)
type side = {
  mutable sites : site list;  (* reversed *)
  mutable order : group list;  (* first-seen order *)
  mutable bases : int array array;  (* by gid: distinct bases, ascending *)
}

let side () = { sites = []; order = []; bases = [||] }

let close side ngroups =
  let found = Array.make ngroups [] in
  let sites = List.rev side.sites in
  List.iter
    (fun s ->
      (match found.(s.g.gid) with [] -> side.order <- s.g :: side.order | _ :: _ -> ());
      found.(s.g.gid) <- s.base :: found.(s.g.gid))
    sites;
  side.order <- List.rev side.order;
  side.bases <- Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) found;
  List.iter
    (fun s ->
      let bs = side.bases.(s.g.gid) in
      let rec rank i = if bs.(i) = s.base then i else rank (i + 1) in
      s.rank <- rank 0)
    sites

let slots side g = Array.length side.bases.(g.gid) * g.lanes

let slot side s ~lane =
  if s.g.lanes = 1 then s.rank else (lane * Array.length side.bases.(s.g.gid)) + s.rank

(* The constant of each slot, in slot order. *)
let slot_consts side g =
  let bs = side.bases.(g.gid) in
  let n = Array.length bs in
  List.init (n * g.lanes) (fun i -> bs.(i mod n) + (g.step * (i / n)))

(* A side's group as its stream sees it: the port node, each slot's
   constant, and the distinct constants, ascending. *)
type port = { group : group; node : int; slot_consts : int list; consts : int list }

(* A region body with every access resolved. *)
type cexpr =
  | Load of site
  | Leaf of { value : float; name : string option; mutable operand : Dfg.operand }
      (* a literal or parameter: its node, once built *)
  | Unop of Op.t * cexpr
  | Binop of Op.t * cexpr * cexpr

type cstmt =
  | Store of site * cexpr
  | Acc_inner of Op.t * site * site * cexpr
      (* accumulation whose target ignores the innermost variable: one write
         per reduction, initialized from a one-shot read of the target *)
  | Rmw of Op.t * site * site * cexpr  (* per-lane read, combine, write *)
  | Reduce of string * Op.t * cexpr

let unset = { Dfg.src = -1; lane = -1 }

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
  (* Phase A: resolve every access, in first-seen order per side. *)
  let groups = Hashtbl.create 16 and ngroups = ref 0 in
  let loads = side () and stores = side () in
  let site side (r : Ir.aref) =
    let a, via =
      match r.index with
      | Ir.Direct a -> (a, None)
      | Ir.Indirect { idx_array; at } -> (at, Some idx_array)
    in
    let terms =
      if unroll = 1 then a.terms
      else (Ir.affine_subst_scaled a ~var:iv ~scale:unroll ~offset:0).terms
    in
    let g =
      match Hashtbl.find_opt groups (r.array, terms, via) with
      | Some g -> g
      | None ->
        let g =
          { gid = !ngroups; garray = r.array; terms; via;
            lanes = (if List.mem_assoc iv terms then unroll else 1);
            step = (if unroll = 1 then 0 else Ir.affine_coeff a iv);
            recur = false }
        in
        incr ngroups;
        Hashtbl.add groups (r.array, terms, via) g;
        g
    in
    let s = { g; base = a.const; rank = 0 } in
    side.sites <- s :: side.sites;
    s
  in
  (* loads left to right, as [Ir.stmt_loads] lists them: the first-seen
     order of groups is the order of the input ports *)
  let rec resolve = function
    | Ir.Load r -> Load (site loads r)
    | Ir.Const value -> Leaf { value; name = None; operand = unset }
    | Ir.Param p -> Leaf { value = 1.0; name = Some p; operand = unset }
    | Ir.Unop (op, e) -> Unop (op, resolve e)
    | Ir.Binop (op, x, y) ->
      let x = resolve x in
      Binop (op, x, resolve y)
  in
  let body =
    List.map
      (function
        | Ir.Store (r, e) ->
          let e = resolve e in
          Store (site stores r, e)
        | Ir.Accum (r, op, e) -> (
          let e = resolve e in
          let ls = site loads r in
          let ss = site stores r in
          (* classified before substitution: the target's use of the
             innermost variable is unchanged by unrolling *)
          match r.index with
          | Ir.Indirect _ ->
            (* indirect RMW: treat as plain load+store *)
            ss.g.recur <- false;
            Rmw (op, ls, ss, e)
          | Ir.Direct a ->
            let vars = Ir.affine_vars a in
            let inner = List.mem iv vars in
            ss.g.recur <-
              inner && List.exists (fun (l : Ir.loop) -> not (List.mem l.var vars)) loops;
            if inner then Rmw (op, ls, ss, e) else Acc_inner (op, ls, ss, e))
        | Ir.Reduce (name, op, e) -> Reduce (name, op, resolve e))
      region.body
  in
  close loads !ngroups;
  close stores !ngroups;
  (* Phase B: DFG inputs, one vector port per load group. *)
  let b = Dfg.Builder.create () in
  let input_ids = Array.make !ngroups (-1) in
  let operands = Array.make !ngroups [||] in
  List.iter
    (fun g ->
      let stationary = stationary_factor loops (List.map fst g.terms) in
      let n = slots loads g in
      let id = Dfg.Builder.input b ~width_bytes:(n * eb) ~stated:(stationary > 1.0) in
      input_ids.(g.gid) <- id;
      operands.(g.gid) <- Array.init n (fun lane -> { Dfg.src = id; lane }))
    loads.order;
  let load s ~lane = operands.(s.g.gid).(slot loads s ~lane) in
  let rec eval ~lane expr : Dfg.operand =
    match expr with
    | Load s -> load s ~lane
    | Leaf l ->
      if l.operand == unset then
        l.operand <- { Dfg.src = Dfg.Builder.const b ?name:l.name l.value; lane = 0 };
      l.operand
    | Unop (op, e) ->
      { Dfg.src = Dfg.Builder.inst b op dtype [ eval ~lane e ]; lane = 0 }
    | Binop (op, x, y) ->
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
  let combine_lanes op e = tree_combine op (List.init unroll (fun lane -> eval ~lane e)) in
  (* Phase C: evaluate bodies, recording each store slot's result. *)
  let results = Array.make !ngroups [||] in
  List.iter (fun g -> results.(g.gid) <- Array.make (slots stores g) unset) stores.order;
  let store s ~lane o = results.(s.g.gid).(slot stores s ~lane) <- o in
  let scalar_outputs = ref [] in
  List.iter
    (function
      | Store (s, e) ->
        for lane = 0 to unroll - 1 do
          store s ~lane (eval ~lane e)
        done
      | Acc_inner (op, ls, ss, e) ->
        let combined = combine_lanes op e in
        store ss ~lane:0
          { Dfg.src = Dfg.Builder.inst b op dtype ~acc:true [ combined; load ls ~lane:0 ];
            lane = 0 }
      | Rmw (op, ls, ss, e) ->
        for lane = 0 to unroll - 1 do
          let old_v = load ls ~lane in
          store ss ~lane
            { Dfg.src = Dfg.Builder.inst b op dtype [ old_v; eval ~lane e ]; lane = 0 }
        done
      | Reduce (name, op, e) ->
        let combined = combine_lanes op e in
        let acc =
          { Dfg.src = Dfg.Builder.inst b op dtype ~acc:true [ combined ]; lane = 0 }
        in
        let out = Dfg.Builder.output b ~width_bytes:eb [ acc ] in
        scalar_outputs := (name, out) :: !scalar_outputs)
    body;
  (* Phase D: one output port per store group. *)
  let output_ids = Array.make !ngroups (-1) in
  List.iter
    (fun g ->
      let rs = results.(g.gid) in
      let n = Array.length rs in
      let operands =
        List.init n (fun i ->
            if rs.(i) == unset then invalid_arg ("Compile: store without result " ^ g.garray);
            rs.(i))
      in
      output_ids.(g.gid) <- Dfg.Builder.output b ~width_bytes:(n * eb) operands)
    stores.order;
  let dfg = Dfg.Builder.finish b in
  (* Phase E: streams with reuse annotations. *)
  let port side node_ids g =
    let slot_consts = slot_consts side g in
    { group = g; node = node_ids.(g.gid); slot_consts;
      consts = List.sort_uniq Int.compare slot_consts }
  in
  let load_ports = List.map (port loads input_ids) loads.order in
  let store_ports = List.map (port stores output_ids) stores.order in
  let next_stream = ref 0 in
  let fresh () =
    let i = !next_stream in
    incr next_stream;
    i
  in
  let reuse_of p =
    let vars = List.map fst p.group.terms in
    let s = stationary_factor loops vars in
    let u = List.length p.slot_consts in
    let denom = Float.max s (float_of_int unroll) in
    let traffic = iters *. float_of_int u /. denom in
    let footprint =
      match p.group.via with
      | Some _ -> arr_elems p.group.garray
      | None ->
        let width = range_width loops p.group.terms in
        let spread =
          match p.consts with
          | [] -> 0
          | cs -> List.fold_left max min_int cs - List.fold_left min max_int cs
        in
        min (arr_elems p.group.garray) (width + spread + 1)
    in
    { Stream.traffic; footprint; stationary = s }
  in
  let stride_of p =
    match p.consts with
    | _ :: _ :: _ ->
      let rec min_gap acc = function
        | a :: (bb :: _ as rest) -> min_gap (min acc (bb - a)) rest
        | [ _ ] | [] -> acc
      in
      max 1 (min_gap max_int p.consts)
    | _ ->
      (* coefficient of the deepest loop that appears in the subscript *)
      let rec deepest = function
        | [] -> 1
        | (l : Ir.loop) :: rest ->
          let c = List.assoc_opt l.var p.group.terms in
          (match c with
           | Some c when c <> 0 -> abs c / max 1 (if l.var = iv then unroll else 1)
           | Some _ | None -> deepest rest)
      in
      max 1 (deepest (List.rev loops))
  in
  let dims_of p = Overgen_util.Stats.clamp_int ~lo:1 ~hi:3 (List.length p.group.terms) in
  let partitioned_of p =
    match loops with
    | [] -> true
    | outer :: _ -> List.mem_assoc outer.Ir.var p.group.terms
  in
  let access_of p =
    match p.group.via with
    | Some via -> Stream.Indirect { via }
    | None -> Stream.Linear { stride = stride_of p }
  in
  (* Recurrence info for Rec_acc store groups (and their partner reads). *)
  let rec_info_of p =
    let vars = List.map fst p.group.terms in
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
      let reuse = reuse_of p in
      let concurrent =
        max 1 (int_of_float (float_of_int reuse.footprint /. Float.max 1.0 prod_shallow))
      in
      let mem_traffic = reuse.traffic /. Float.max 1.0 recurs in
      Some { Stream.concurrent; recurs; mem_traffic }
  in
  let stream dir p recurrence =
    {
      Stream.id = fresh ();
      array = p.group.garray;
      dir;
      access = access_of p;
      dims = dims_of p;
      lanes = List.length p.slot_consts;
      elem_bytes = eb;
      port = Some p.node;
      partitioned = partitioned_of p;
      reuse = reuse_of p;
      recurrence;
    }
  in
  let read_streams =
    List.map
      (fun p ->
        (* a recurrence's partner read shares its store group's info *)
        let partner () = List.find (fun sp -> sp.group == p.group) store_ports in
        stream Stream.Read p (if p.group.recur then rec_info_of (partner ()) else None))
      load_ports
  in
  (* Engine-internal index streams of indirect accesses. *)
  let index_streams =
    List.filter_map
      (fun p ->
        match p.group.via with
        | None -> None
        | Some via ->
          let idx = { p with group = { p.group with garray = via; via = None } } in
          Some { (stream Stream.Read idx None) with port = None })
      load_ports
  in
  let write_streams =
    List.map
      (fun p -> stream Stream.Write p (if p.group.recur then rec_info_of p else None))
      store_ports
  in
  let aref_of_slot g const : Ir.aref =
    match g.via with
    | Some via ->
      { array = g.garray;
        index = Ir.Indirect { idx_array = via; at = { Ir.terms = g.terms; const } } }
    | None -> { array = g.garray; index = Ir.Direct { Ir.terms = g.terms; const } }
  in
  let port_slots =
    List.map
      (fun p -> (p.node, List.map (aref_of_slot p.group) p.slot_consts))
      (load_ports @ store_ports)
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
   annotations, the array nodes and the port slots.  Floats are written in
   hex notation ([Append.hex_float], byte for byte [Printf]'s "%h") so the
   dump is exact.  The digest of this dump is the content address of the
   variant in the compile-service schedule cache, so its text is pinned
   byte for byte (test/mdfg-golden.tsv, test/mdfg-gen-golden.tsv).  It is
   written with plain buffer appends: a serve cache miss pays this hash,
   and formatting each field through [Printf] cost more than parsing,
   compiling and variant generation together. *)

let dump_variant buf (v : variant) =
  let str s = Buffer.add_string buf s
  and chr c = Buffer.add_char buf c
  and int n = Overgen_util.Append.int buf n
  and bool b = Buffer.add_string buf (string_of_bool b)
  and hex x = Overgen_util.Append.hex_float buf x in
  str "variant ";
  str v.kernel;
  str " region=";
  str v.region.Ir.rname;
  str " tuned=";
  bool v.tuned;
  str " unroll=";
  int v.unroll;
  str " iters=";
  hex v.iters;
  str " firings=";
  hex v.firings;
  chr '\n';
  List.iter
    (fun (n : Dfg.node) ->
      chr 'n';
      int n.id;
      (match n.kind with
      | Dfg.Inst { op; dtype; acc } ->
        str " inst ";
        str (Op.to_string op);
        chr ' ';
        str (Dtype.to_string dtype);
        str " acc=";
        bool acc
      | Dfg.Const { value; name } ->
        str " const ";
        hex value;
        chr ' ';
        str (Option.value name ~default:"-")
      | Dfg.Input { width_bytes; stated } ->
        str " in ";
        int width_bytes;
        str " stated=";
        bool stated
      | Dfg.Output { width_bytes } ->
        str " out ";
        int width_bytes);
      List.iter
        (fun (o : Dfg.operand) ->
          chr ' ';
          int o.src;
          chr '.';
          int o.lane)
        n.operands;
      chr '\n')
    (Dfg.nodes v.dfg);
  List.iter
    (fun (s : Stream.t) ->
      chr 's';
      int s.id;
      chr ' ';
      str s.array;
      str (match s.dir with Stream.Read -> " r " | Stream.Write -> " w ");
      (match s.access with
      | Stream.Linear { stride } ->
        str "lin";
        int stride
      | Stream.Indirect { via } ->
        str "ind:";
        str via);
      str " dims=";
      int s.dims;
      str " lanes=";
      int s.lanes;
      str " eb=";
      int s.elem_bytes;
      str " port=";
      (match s.port with Some p -> int p | None -> chr '-');
      str " part=";
      bool s.partitioned;
      chr ' ';
      hex s.reuse.traffic;
      chr '/';
      int s.reuse.footprint;
      chr '/';
      hex s.reuse.stationary;
      (match s.recurrence with
      | Some r ->
        str " rec=";
        int r.concurrent;
        chr '/';
        hex r.recurs;
        chr '/';
        hex r.mem_traffic
      | None -> ());
      chr '\n')
    v.streams;
  List.iter
    (fun (a : Stream.array_info) ->
      str "a ";
      str a.name;
      chr ' ';
      int a.elems;
      chr ' ';
      int a.elem_bytes;
      str " ro=";
      bool a.read_only;
      chr '\n')
    v.arrays;
  List.iter
    (fun (port, refs) ->
      chr 'p';
      int port;
      List.iter
        (fun r ->
          chr ' ';
          Ir.add_aref buf r)
        refs;
      chr '\n')
    v.port_slots

let hash_variant v =
  let buf = Buffer.create 1024 in
  dump_variant buf v;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let hash_compiled c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "compiled ";
  Buffer.add_string buf c.kname;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Suite.to_string c.suite);
  Buffer.add_string buf " wr=";
  Buffer.add_string buf (string_of_bool c.window_reuse);
  Buffer.add_string buf " bc=";
  Buffer.add_string buf (string_of_bool c.needs_broadcast);
  Buffer.add_char buf '\n';
  List.iter (List.iter (dump_variant buf)) c.per_region;
  Digest.to_hex (Digest.string (Buffer.contents buf))
