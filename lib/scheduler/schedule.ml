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
  float_of_int (Dfg.inst_count t.variant.dfg + mem_ops t) /. float_of_int (max 1 t.ii)

let is_rec t (s : Stream.t) = List.mem_assoc s.id t.rec_streams

let engine_of_stream t (s : Stream.t) =
  match List.assoc_opt s.id t.rec_streams with
  | Some e -> Some e
  | None -> (
    match List.assoc_opt s.id t.reg_streams with
    | Some e -> Some e
    | None -> List.assoc_opt s.array t.array_engine)


(* ------------------------------------------------------------------ *)
(* Initiation interval                                                 *)
(* ------------------------------------------------------------------ *)

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
        max acc (Overgen_util.Stats.div_ceil (max 1 need) (max 1 width)))
      t.port_map 1
  in
  (* Engine-bandwidth limit: average bytes an engine must move per firing. *)
  let engine_demand = Hashtbl.create 8 in
  List.iter
    (fun (s : Stream.t) ->
      match engine_of_stream t s with
      | None -> ()
      | Some e ->
        let bytes =
          Stream.mem_bytes s ~use_rec:(is_rec t s) /. Float.max 1.0 v.firings
        in
        Hashtbl.replace engine_demand e
          (bytes +. Option.value ~default:0.0 (Hashtbl.find_opt engine_demand e)))
    v.streams;
  let engine_ii =
    Hashtbl.fold
      (fun e demand acc ->
        let bw =
          match comp e with
          | Some (Comp.Engine en) -> float_of_int (max 1 en.bandwidth)
          | Some (Comp.Pe _ | Comp.Switch _ | Comp.In_port _ | Comp.Out_port _)
          | None -> 1.0
        in
        max acc (int_of_float (ceil (demand /. bw))))
      engine_demand 1
  in
  (* Recurrence distance: a loop-carried chain of pipeline depth D with C
     concurrent instances initiates at best every ceil(D/C) cycles. *)
  let depth = lazy (Dfg.depth v.dfg + 4 (* port + engine forwarding *)) in
  let rec_ii =
    List.fold_left
      (fun acc (s : Stream.t) ->
        match s.recurrence with
        | Some r when is_rec t s ->
          max acc
            (Overgen_util.Stats.div_ceil (Lazy.force depth)
               (max 1 r.concurrent))
        | Some _ | None -> acc)
      1 v.streams
  in
  max (max port_ii (t.max_link_share * t.skew_penalty)) (max engine_ii rec_ii)

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
        go (max elem s.elem_bytes) (stated || needs_state s) rest
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

let validate ?comp ?mem_edge t (sys : Sys_adg.t) =
  let adg = sys.adg in
  let comp = match comp with Some f -> f | None -> fun id -> Adg.comp adg id in
  let mem_edge =
    match mem_edge with
    | Some f -> f
    | None -> fun a b -> Adg.mem_edge adg a b
  in
  let v = t.variant in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* instructions on capable PEs *)
  Imap.iter
    (fun inst pe_id ->
      match ((Dfg.node v.dfg inst).kind, comp pe_id) with
      | Dfg.Inst { op; dtype; _ }, Some (Comp.Pe p) ->
        if not (pe_has_cap p ~op ~dtype) then
          fail "pe %d lost cap %s.%s" pe_id (Op.to_string op) (Dtype.to_string dtype)
        else if not (pe_wide_enough p ~dtype) then fail "pe %d too narrow" pe_id
      | Dfg.Inst _, _ -> fail "inst %d mapped to missing/non-pe %d" inst pe_id
      | (Dfg.Const _ | Dfg.Input _ | Dfg.Output _), _ ->
        fail "non-inst %d in inst_pe" inst)
    t.inst_pe;
  (* dedicated model: at most one instruction per PE *)
  let seen = Hashtbl.create 16 in
  Imap.iter
    (fun inst pe_id ->
      (match Hashtbl.find_opt seen pe_id with
      | Some other -> fail "pe %d shared by insts %d and %d" pe_id other inst
      | None -> ());
      Hashtbl.replace seen pe_id inst)
    t.inst_pe;
  (* ports *)
  Imap.iter
    (fun dfg_port hw ->
      match ((Dfg.node v.dfg dfg_port).kind, comp hw) with
      | Dfg.Input _, Some (Comp.In_port p) | Dfg.Output _, Some (Comp.Out_port p) ->
        let elem, stated = port_need v dfg_port in
        if not (port_wide_enough p ~elem) then
          fail "hw port %d narrower than element (%dB < %dB)" hw p.width_bytes elem;
        if not (port_state_ok p ~stated) then fail "hw port %d lacks stream-state" hw
      | Dfg.Input _, _ -> fail "dfg input %d on non-in-port %d" dfg_port hw
      | Dfg.Output _, _ -> fail "dfg output %d on non-out-port %d" dfg_port hw
      | (Dfg.Inst _ | Dfg.Const _), _ -> fail "non-port %d in port_map" dfg_port)
    t.port_map;
  (* arrays on engines with capacity and feature support *)
  let spad_load = Hashtbl.create 4 in
  List.iter
    (fun (name, e) ->
      match comp e with
      | Some (Comp.Engine en) ->
        let info = List.find_opt (fun (a : Stream.array_info) -> a.name = name) v.arrays in
        (match (en.kind, info) with
        | Comp.Spad, Some a ->
          let total =
            Stream.array_bytes a
            + Option.value ~default:0 (Hashtbl.find_opt spad_load e)
          in
          Hashtbl.replace spad_load e total;
          if not (spad_holds en ~bytes:total) then fail "spad %d over capacity" e
        | (Comp.Dma | Comp.Spad | Comp.Rec | Comp.Gen | Comp.Reg), _ -> ());
        (* feature support for this array's streams *)
        List.iter
          (fun (s : Stream.t) ->
            if s.array = name then begin
              if not (engine_indirect_ok en s) then
                fail "engine %d lacks indirect for %s" e name;
              if not (engine_dims_ok en s) then
                fail "engine %d lacks %dD patterns" e s.dims
            end)
          v.streams
      | Some (Comp.Pe _ | Comp.Switch _ | Comp.In_port _ | Comp.Out_port _) | None ->
        fail "array %s on missing engine %d" name e)
    t.array_engine;
  List.iter
    (fun (_, e) ->
      match comp e with
      | Some (Comp.Engine { kind = Comp.Rec; _ }) -> ()
      | _ -> fail "rec stream on non-rec engine %d" e)
    t.rec_streams;
  List.iter
    (fun (_, e) ->
      match comp e with
      | Some (Comp.Engine { kind = Comp.Reg; _ }) -> ()
      | _ -> fail "reg stream on non-reg engine %d" e)
    t.reg_streams;
  (* routes intact: they start at the producer's placement and end at the
     consumer's, every hop edge is present, intermediates are switches *)
  let at id hop =
    match Imap.find_opt id t.inst_pe with
    | Some pe -> pe = hop
    | None -> (
      match Imap.find_opt id t.port_map with Some p -> p = hop | None -> false)
  in
  List.iter
    (fun ((src, dst), r) ->
      let rec walk = function
        | a :: (b :: _ as rest) ->
          if not (mem_edge a b) then fail "route %d->%d broken at %d->%d" src dst a b;
          walk rest
        | [ last ] ->
          if not (at dst last) then
            fail "route %d->%d ends at %d, not at its consumer" src dst last
        | [] -> fail "route %d->%d is empty" src dst
      in
      (match r.hops with
      | first :: _ when not (at src first) ->
        fail "route %d->%d starts at %d, not at its producer" src dst first
      | _ -> ());
      walk r.hops;
      let n_hops = List.length r.hops in
      List.iteri
        (fun i hop ->
          if i > 0 && i < n_hops - 1 then
            match comp hop with
            | Some (Comp.Switch _) -> ()
            | _ -> fail "route %d->%d passes through non-switch %d" src dst hop)
        r.hops;
      (* delay budget on the consuming PE *)
      match Imap.find_opt dst t.inst_pe with
      | Some pe_id -> (
        match comp pe_id with
        | Some (Comp.Pe p) ->
          if r.delay > p.delay_fifo then
            fail "route %d->%d needs delay %d > fifo %d" src dst r.delay p.delay_fifo
        | _ -> ())
      | None -> ())
    t.routes;
  match !err with None -> Ok () | Some e -> Error e
