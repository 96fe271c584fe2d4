open Overgen_adg
open Overgen_mdfg
module Imap = Map.Make (Int)

type route = { hops : Adg.id list; delay : int }

type t = {
  variant : Compile.variant;
  inst_pe : Adg.id Imap.t;
  port_map : Adg.id Imap.t;
  array_engine : (string * Adg.id) list;
  rec_streams : (int * Adg.id) list;
  reg_streams : (int * Adg.id) list;
  routes : ((int * int) * route) list;
  max_link_share : int;
  skew_penalty : int;
  ii : int;
}

let mem_ops t =
  List.fold_left
    (fun acc (s : Stream.t) ->
      match s.port with Some _ -> acc + s.lanes | None -> acc)
    0 t.variant.streams

let ipc t =
  float_of_int (Dfg.inst_count t.variant.dfg + mem_ops t) /. float_of_int (Int.max 1 t.ii)

let is_rec t (s : Stream.t) = List.mem_assoc s.id t.rec_streams

let rec assoc_id (k : int) = function
  | [] -> -1
  | (k', e) :: rest -> if k' = k then e else assoc_id k rest

let rec assoc_name name = function
  | [] -> -1
  | (n, e) :: rest -> if String.equal n name then e else assoc_name name rest

(* [engine_of_stream] without the option: -1 for none (ids are >= 0) *)
let engine_id t (s : Stream.t) =
  let e = assoc_id s.id t.rec_streams in
  if e >= 0 then e
  else
    let e = assoc_id s.id t.reg_streams in
    if e >= 0 then e else assoc_name s.array t.array_engine

let engine_of_stream t s = match engine_id t s with -1 -> None | e -> Some e

(* ------------------------------------------------------------------ *)
(* Initiation interval                                                 *)
(* ------------------------------------------------------------------ *)

(* [compute_ii] scans the stream list instead of building a table: a
   variant has few streams and fewer engines, and the DSE computes an II
   for every schedule it repairs or scores. *)

let rec engine_in t e = function
  | [] -> false
  | s :: rest -> engine_id t s = e || engine_in t e rest

(* The bytes engine [e] moves per firing, summed in stream order. *)
let rec demand_of t e firings acc = function
  | [] -> acc
  | (s : Stream.t) :: rest ->
    let acc =
      if engine_id t s = e then
        acc +. (Stream.mem_bytes s ~use_rec:(is_rec t s) /. firings)
      else acc
    in
    demand_of t e firings acc rest

(* The engine-bandwidth limit, each engine taken once at its last
   stream. *)
let rec engine_ii comp t firings acc = function
  | [] -> acc
  | s :: rest ->
    let e = engine_id t s in
    let acc =
      if e < 0 || engine_in t e rest then acc
      else
        let bw =
          match comp e with
          | Some (Comp.Engine en) -> float_of_int (Int.max 1 en.Comp.bandwidth)
          | Some (Comp.Pe _ | Comp.Switch _ | Comp.In_port _ | Comp.Out_port _)
          | None -> 1.0
        in
        let demand = demand_of t e firings 0.0 t.variant.streams in
        Int.max acc (int_of_float (ceil (demand /. bw)))
    in
    engine_ii comp t firings acc rest

(* Recurrence distance: a loop-carried chain of pipeline depth D with C
   concurrent instances initiates at best every ceil(D/C) cycles.  [depth]
   is -1 until a recurrence needs it. *)
let rec rec_ii t depth acc = function
  | [] -> acc
  | (s : Stream.t) :: rest -> (
    match s.recurrence with
    | Some r when is_rec t s ->
      let depth =
        if depth < 0 then Dfg.depth t.variant.dfg + 4 (* port + engine forwarding *)
        else depth
      in
      rec_ii t depth
        (Int.max acc (Overgen_util.Stats.div_ceil depth (max 1 r.concurrent)))
        rest
    | Some _ | None -> rec_ii t depth acc rest)

let compute_ii ?comp (sys : Sys_adg.t) t =
  let adg = sys.adg in
  let comp = match comp with Some f -> f | None -> fun id -> Adg.comp adg id in
  let v = t.variant in
  (* Port-width limit: a firing needs lanes*eb bytes through each port. *)
  let port_ii =
    Imap.fold
      (fun dfg_port hw acc ->
        let need =
          match (Dfg.node v.dfg dfg_port).kind with
          | Dfg.Input { width_bytes; _ } | Dfg.Output { width_bytes } -> width_bytes
          | Dfg.Inst _ | Dfg.Const _ -> 0
        in
        let width =
          match comp hw with
          | Some (Comp.In_port p) | Some (Comp.Out_port p) -> p.width_bytes
          | Some (Comp.Pe _ | Comp.Switch _ | Comp.Engine _) | None -> 1
        in
        Int.max acc (Overgen_util.Stats.div_ceil (Int.max 1 need) (Int.max 1 width)))
      t.port_map 1
  in
  (* Engine-bandwidth limit: average bytes an engine must move per firing. *)
  let engine_ii = engine_ii comp t (Float.max 1.0 v.firings) 1 v.streams in
  let rec_ii = rec_ii t (-1) 1 v.streams in
  Int.max (Int.max port_ii (t.max_link_share * t.skew_penalty)) (Int.max engine_ii rec_ii)

(* ------------------------------------------------------------------ *)
(* Legality rules                                                      *)
(* ------------------------------------------------------------------ *)

(* Each rule a binding must keep is defined once, here.  [validate] reports
   the first rule a schedule breaks; the scheduler filters its candidates
   and re-checks prior bindings with the same predicates. *)

(* An instruction fits a PE that supports its op at its dtype and is at
   least as wide as the dtype. *)
let pe_has_cap (p : Comp.pe) ~op ~dtype = Op.Cap.supports p.caps op dtype
let pe_wide_enough (p : Comp.pe) ~dtype = p.width_bits >= Dtype.bits dtype
let pe_fits p ~op ~dtype = pe_has_cap p ~op ~dtype && pe_wide_enough p ~dtype

(* A port carries a stream's elements if it passes one per cycle, and
   holds stationary values in its FIFO only with stream-state metadata. *)
let needs_state (s : Stream.t) = s.reuse.stationary > 1.0
let port_wide_enough (p : Comp.port) ~elem = p.width_bytes >= elem
let port_state_ok (p : Comp.port) ~stated = (not stated) || p.stated

let port_fits p ~elem ~stated = port_wide_enough p ~elem && port_state_ok p ~stated

let port_takes p (s : Stream.t) =
  port_fits p ~elem:s.elem_bytes ~stated:(needs_state s)

(* What the streams on one DFG port need of its hardware port: the widest
   element (at least 1 byte), and stream state if any is stationary. *)
let port_need (v : Compile.variant) dfg_port =
  let rec go elem stated = function
    | [] -> (elem, stated)
    | (s : Stream.t) :: rest -> (
      match s.port with
      | Some p when p = dfg_port ->
        go (Int.max elem s.elem_bytes) (stated || needs_state s) rest
      | Some _ | None -> go elem stated rest)
  in
  go 1 false v.streams

let port_carries v dfg_port p =
  let elem, stated = port_need v dfg_port in
  port_fits p ~elem ~stated

(* DMA and scratchpad engines generate a stream's addresses themselves, so
   they must support its indirection and its dimensionality; the other
   kinds walk no address pattern. *)
let walks_pattern (en : Comp.engine) =
  match en.kind with
  | Comp.Dma | Comp.Spad -> true
  | Comp.Rec | Comp.Gen | Comp.Reg -> false

let engine_indirect_ok en (s : Stream.t) =
  match s.access with
  | Stream.Indirect _ -> en.Comp.indirect || not (walks_pattern en)
  | Stream.Linear _ -> true

let engine_dims_ok en (s : Stream.t) =
  s.dims <= en.Comp.max_dims || not (walks_pattern en)

let engine_serves en s = engine_indirect_ok en s && engine_dims_ok en s
let spad_holds (en : Comp.engine) ~bytes = bytes <= en.capacity

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* [validate] stops at the first broken rule: each check raises, in the
   order the rules are listed, and none builds a table. *)
exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* instructions on capable PEs *)
let check_inst comp (v : Compile.variant) inst pe_id =
  match ((Dfg.node v.dfg inst).kind, comp pe_id) with
  | Dfg.Inst { op; dtype; _ }, Some (Comp.Pe p) ->
    if not (pe_has_cap p ~op ~dtype) then
      invalid "pe %d lost cap %s.%s" pe_id (Op.to_string op) (Dtype.to_string dtype)
    else if not (pe_wide_enough p ~dtype) then invalid "pe %d too narrow" pe_id
  | Dfg.Inst _, _ -> invalid "inst %d mapped to missing/non-pe %d" inst pe_id
  | (Dfg.Const _ | Dfg.Input _ | Dfg.Output _), _ ->
    invalid "non-inst %d in inst_pe" inst

(* dedicated model: at most one instruction per PE.  Runs after
   [check_inst] passed, so every PE id is a node's, hence >= 0. *)
let check_dedicated inst_pe =
  let top = Imap.fold (fun _ pe acc -> Int.max acc pe) inst_pe 0 in
  let seen = Bytes.make ((top lsr 3) + 1) '\000' in
  Imap.iter
    (fun inst pe_id ->
      let byte = Char.code (Bytes.get seen (pe_id lsr 3))
      and bit = 1 lsl (pe_id land 7) in
      if byte land bit <> 0 then begin
        let other, _ =
          Imap.min_binding (Imap.filter (fun i pe -> pe = pe_id && i < inst) inst_pe)
        in
        invalid "pe %d shared by insts %d and %d" pe_id other inst
      end;
      Bytes.set seen (pe_id lsr 3) (Char.chr (byte lor bit)))
    inst_pe

let check_port comp v dfg_port hw =
  match ((Dfg.node v.Compile.dfg dfg_port).kind, comp hw) with
  | Dfg.Input _, Some (Comp.In_port p) | Dfg.Output _, Some (Comp.Out_port p) ->
    let elem, stated = port_need v dfg_port in
    if not (port_wide_enough p ~elem) then
      invalid "hw port %d narrower than element (%dB < %dB)" hw p.width_bytes elem;
    if not (port_state_ok p ~stated) then invalid "hw port %d lacks stream-state" hw
  | Dfg.Input _, _ -> invalid "dfg input %d on non-in-port %d" dfg_port hw
  | Dfg.Output _, _ -> invalid "dfg output %d on non-out-port %d" dfg_port hw
  | (Dfg.Inst _ | Dfg.Const _), _ -> invalid "non-port %d in port_map" dfg_port

(* The scratchpad bytes of one array, or -1 for an array the variant does
   not declare. *)
let rec array_bytes_of name = function
  | [] -> -1
  | (a : Stream.array_info) :: rest ->
    if String.equal a.name name then Stream.array_bytes a else array_bytes_of name rest

(* The bytes of the declared arrays bound to [e], from the start of the
   binding list [l] through the binding at list cell [here]. *)
let rec spad_load (v : Compile.variant) e here acc l =
  match l with
  | [] -> acc
  | (name, e') :: rest ->
    let n = if e' = e then array_bytes_of name v.arrays else -1 in
    let acc = if n >= 0 then acc + n else acc in
    if l == here then acc else spad_load v e here acc rest

(* feature support for one array's streams *)
let rec check_features en e name = function
  | [] -> ()
  | (s : Stream.t) :: rest ->
    if String.equal s.array name then begin
      if not (engine_indirect_ok en s) then
        invalid "engine %d lacks indirect for %s" e name;
      if not (engine_dims_ok en s) then invalid "engine %d lacks %dD patterns" e s.dims
    end;
    check_features en e name rest

(* arrays on engines with capacity and feature support *)
let rec check_arrays comp (v : Compile.variant) all = function
  | [] -> ()
  | (name, e) :: rest as here ->
    (match comp e with
    | Some (Comp.Engine en) ->
      (match en.Comp.kind with
      | Comp.Spad ->
        if array_bytes_of name v.arrays >= 0
           && not (spad_holds en ~bytes:(spad_load v e here 0 all))
        then invalid "spad %d over capacity" e
      | Comp.Dma | Comp.Rec | Comp.Gen | Comp.Reg -> ());
      check_features en e name v.streams
    | Some (Comp.Pe _ | Comp.Switch _ | Comp.In_port _ | Comp.Out_port _) | None ->
      invalid "array %s on missing engine %d" name e);
    check_arrays comp v all rest

let rec check_engine_kind comp kind what = function
  | [] -> ()
  | (_, e) :: rest ->
    (match comp e with
    | Some (Comp.Engine en) when en.Comp.kind = kind -> ()
    | _ -> invalid "%s stream on non-%s engine %d" what what e);
    check_engine_kind comp kind what rest

(* DFG node [id] is placed on [hop] *)
let placed_at t id hop =
  if Imap.mem id t.inst_pe then Imap.find id t.inst_pe = hop
  else Imap.mem id t.port_map && Imap.find id t.port_map = hop

(* every hop edge present, and the last hop the consumer's placement *)
let rec check_hops mem_edge t src dst = function
  | a :: (b :: _ as rest) ->
    if not (mem_edge a b) then invalid "route %d->%d broken at %d->%d" src dst a b;
    check_hops mem_edge t src dst rest
  | [ last ] ->
    if not (placed_at t dst last) then
      invalid "route %d->%d ends at %d, not at its consumer" src dst last
  | [] -> invalid "route %d->%d is empty" src dst

(* every hop but the last is a switch (the caller drops the first) *)
let rec check_interior comp src dst = function
  | hop :: (_ :: _ as rest) ->
    (match comp hop with
    | Some (Comp.Switch _) -> ()
    | _ -> invalid "route %d->%d passes through non-switch %d" src dst hop);
    check_interior comp src dst rest
  | [ _ ] | [] -> ()

(* routes intact: they start at the producer's placement and end at the
   consumer's, every hop edge is present, intermediates are switches, and
   the delay fits the consuming PE's FIFO *)
let rec check_routes comp mem_edge t = function
  | [] -> ()
  | ((src, dst), r) :: rest ->
    (match r.hops with
    | first :: _ when not (placed_at t src first) ->
      invalid "route %d->%d starts at %d, not at its producer" src dst first
    | _ -> ());
    check_hops mem_edge t src dst r.hops;
    (match r.hops with
    | _ :: interior -> check_interior comp src dst interior
    | [] -> ());
    (if Imap.mem dst t.inst_pe then
       match comp (Imap.find dst t.inst_pe) with
       | Some (Comp.Pe p) ->
         if r.delay > p.delay_fifo then
           invalid "route %d->%d needs delay %d > fifo %d" src dst r.delay p.delay_fifo
       | _ -> ());
    check_routes comp mem_edge t rest

let validate ?comp ?mem_edge t (sys : Sys_adg.t) =
  let adg = sys.adg in
  let comp = match comp with Some f -> f | None -> fun id -> Adg.comp adg id in
  let mem_edge =
    match mem_edge with
    | Some f -> f
    | None -> fun a b -> Adg.mem_edge adg a b
  in
  let v = t.variant in
  match
    Imap.iter (fun inst pe_id -> check_inst comp v inst pe_id) t.inst_pe;
    check_dedicated t.inst_pe;
    Imap.iter (fun dfg_port hw -> check_port comp v dfg_port hw) t.port_map;
    check_arrays comp v t.array_engine t.array_engine;
    check_engine_kind comp Comp.Rec "rec" t.rec_streams;
    check_engine_kind comp Comp.Reg "reg" t.reg_streams;
    check_routes comp mem_edge t t.routes
  with
  | () -> Ok ()
  | exception Invalid e -> Error e
