open Overgen_adg
open Overgen_mdfg
open Overgen_scheduler
module Rng = Overgen_util.Rng

(* Tables indexed by node id, sized by the largest id the schedules use:
   an id at or past [n] (a node added since) reads as unused.  The
   through-switch pairs are not tabled: only [remove_switch] reads them,
   for the one switch it picked, so [routes_through] walks the
   schedules' routes then. *)
type usage = {
  n : int;
  flags : int array;  (* used_bit lor stated_bit lor indirect_bit *)
  links : Bytes.t;  (* per source a row of [stride n] bytes; bit b: a link to b *)
  pe_caps_used : Op.Cap.t array;
  dims_used : int array;  (* 1 where unused *)
  delay_used : int array;
  schedules : Schedule.t list;
}

let used_bit = 1
let stated_bit = 2
let indirect_bit = 4

let rec max_hop acc = function
  | [] -> acc
  | id :: rest -> max_hop (Int.max acc id) rest

let rec max_bound acc = function
  | [] -> acc
  | (_, id) :: rest -> max_bound (Int.max acc id) rest

(* the largest node id any schedule binds or routes through, or -1 *)
let max_id schedules =
  List.fold_left
    (fun acc (s : Schedule.t) ->
      let top _ id acc = Int.max acc id in
      let acc = Schedule.Imap.fold top s.inst_pe acc in
      let acc = Schedule.Imap.fold top s.port_map acc in
      let acc = max_bound acc s.array_engine in
      let acc = max_bound (max_bound acc s.rec_streams) s.reg_streams in
      List.fold_left
        (fun acc (_, (r : Schedule.route)) -> max_hop acc r.hops)
        acc s.routes)
    (-1) schedules

(* [List.assoc_opt] on an array name without the polymorphic compare:
   -1 for none *)
let rec assoc_name name = function
  | [] -> -1
  | (n, e) :: rest -> if String.equal n name then e else assoc_name name rest

let stride n = (n + 7) lsr 3

let in_range u id = id >= 0 && id < u.n
let flag u bit id = in_range u id && u.flags.(id) land bit <> 0
let used u id = flag u used_bit id
let link_used u a b =
  in_range u a && in_range u b
  &&
  let byte = Bytes.get u.links ((a * stride u.n) + (b lsr 3)) in
  Char.code byte land (1 lsl (b land 7)) <> 0
let pe_caps_used u id = if in_range u id then u.pe_caps_used.(id) else Op.Cap.empty
let stated_used u id = flag u stated_bit id
let indirect_used u id = flag u indirect_bit id
let dims_used u id = if in_range u id then u.dims_used.(id) else 1
let delay_used u id = if in_range u id then u.delay_used.(id) else 0

(* The (previous, next) hop pairs of every route through [id], newest
   first: the order in which [usage_of] walks the hops, reversed. *)
let routes_through u id =
  let rec walk acc = function
    | a :: (b :: c :: _ as rest) -> walk (if b = id then (a, c) :: acc else acc) rest
    | [ _; _ ] | [ _ ] | [] -> acc
  in
  List.fold_left
    (fun acc (s : Schedule.t) ->
      List.fold_left (fun acc (_, (r : Schedule.route)) -> walk acc r.hops) acc s.routes)
    [] u.schedules

(* What a stream needs of engine [e] (-1 for none): indirect access and
   its pattern dims. *)
let need_engine flags dims (st : Stream.t) e =
  if e >= 0 then begin
    (match st.access with
    | Stream.Indirect _ -> flags.(e) <- flags.(e) lor indirect_bit
    | Stream.Linear _ -> ());
    dims.(e) <- Int.max dims.(e) st.dims
  end

let usage_of schedules =
  let n = max_id schedules + 1 in
  let flags = Array.make n 0 and links = Bytes.make (n * stride n) '\000' in
  let caps = Array.make n Op.Cap.empty in
  let dims = Array.make n 1 and delay = Array.make n 0 in
  let set bit id = flags.(id) <- flags.(id) lor bit in
  List.iter
    (fun (s : Schedule.t) ->
      let v = s.variant in
      Schedule.Imap.iter
        (fun inst pe ->
          set used_bit pe;
          match (Dfg.node v.dfg inst).kind with
          | Dfg.Inst { op; dtype; _ } ->
            if not (Op.Cap.supports caps.(pe) op dtype) then
              caps.(pe) <- Op.Cap.add (op, dtype) caps.(pe)
          | Dfg.Const _ | Dfg.Input _ | Dfg.Output _ -> ())
        s.inst_pe;
      Schedule.Imap.iter (fun _ hw -> set used_bit hw) s.port_map;
      List.iter (fun (_, e) -> set used_bit e) s.array_engine;
      List.iter (fun (_, e) -> set used_bit e) s.rec_streams;
      List.iter (fun (_, e) -> set used_bit e) s.reg_streams;
      (* port/engine feature needs *)
      List.iter
        (fun (st : Stream.t) ->
          (match st.port with
          | Some dfg_port when st.reuse.stationary > 1.0 ->
            Option.iter (set stated_bit) (Schedule.Imap.find_opt dfg_port s.port_map)
          | Some _ | None -> ());
          (* the serving engine, plus the memory engine holding the array
             (distinct for recurrence-riding streams) *)
          need_engine flags dims st (Schedule.engine_id s st);
          need_engine flags dims st (assoc_name st.array s.array_engine))
        v.streams;
      (* routes: mark links and delay needs *)
      List.iter
        (fun ((_, dst), (r : Schedule.route)) ->
          (match Schedule.Imap.find dst s.inst_pe with
          | pe -> delay.(pe) <- Int.max delay.(pe) r.delay
          | exception Not_found -> ());
          let rec walk = function
            | a :: (b :: _ as rest) ->
              set used_bit a;
              set used_bit b;
              let i = (a * stride n) + (b lsr 3) in
              let bits = Char.code (Bytes.get links i) lor (1 lsl (b land 7)) in
              Bytes.set links i (Char.unsafe_chr bits);
              walk rest
            | [ _ ] | [] -> ()
          in
          walk r.hops)
        s.routes)
    schedules;
  { n; flags; links; pe_caps_used = caps; dims_used = dims; delay_used = delay; schedules }

(* Every accessor over ids -1 .. n (so one past each end reads the
   out-of-range default) and, for [link_used], over every pair of them. *)
let usage_text u =
  let b = Buffer.create 4096 in
  Printf.bprintf b "n: %d\n" u.n;
  for id = -1 to u.n do
    Printf.bprintf b "%d: used=%b caps=%s stated=%b indirect=%b dims=%d delay=%d through=" id
      (used u id) (Op.Cap.to_string (pe_caps_used u id)) (stated_used u id)
      (indirect_used u id) (dims_used u id) (delay_used u id);
    List.iter (fun (a, c) -> Printf.bprintf b " %d>%d" a c) (routes_through u id);
    Buffer.add_char b '\n'
  done;
  Buffer.add_string b "links:";
  for a = -1 to u.n do
    for c = -1 to u.n do
      if link_used u a c then Printf.bprintf b " %d>%d" a c
    done
  done;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

let random_node_of rng l = if l = [] then None else Some (Rng.choose rng l)

let random_caps rng pool =
  let pairs = Op.Cap.elements pool in
  if pairs = [] then Op.Cap.of_ops [ Op.Add ] [ Dtype.I64 ]
  else if Rng.int rng 4 = 0 then pool (* a fully general PE *)
  else begin
    let n = 1 + Rng.int rng (min 4 (List.length pairs)) in
    let chosen = List.filteri (fun i _ -> i < n) (Rng.shuffle rng pairs) in
    Op.Cap.of_list chosen
  end

let add_pe rng pool adg =
  let sws = Adg.switches adg in
  match sws with
  | [] -> (adg, "noop (no switches)")
  | _ ->
    let caps = random_caps rng pool in
    let pe = Comp.default_pe caps in
    let adg, id = Adg.add adg (Comp.Pe pe) in
    let s1 = Rng.choose rng sws and s2 = Rng.choose rng sws in
    let s3 = Rng.choose rng sws in
    let adg = Adg.add_edge adg s1 id in
    let adg = if s2 <> s1 then Adg.add_edge adg s2 id else adg in
    let adg = Adg.add_edge adg id s3 in
    (adg, Printf.sprintf "add pe %d" id)

let remove_pe rng ~preserve adg usage =
  let pes = List.map fst (Adg.pes adg) in
  let unused = List.filter (fun id -> not (used usage id)) pes in
  let pick = if preserve && unused <> [] then unused else pes in
  match random_node_of rng pick with
  | None -> (adg, "noop (no pes)")
  | Some id -> (Adg.remove_node adg id, Printf.sprintf "remove pe %d" id)

let add_switch rng adg =
  let fabric =
    List.filter_map
      (fun (id, c) -> if Adg.is_fabric c then Some id else None)
      (Adg.nodes adg)
  in
  match fabric with
  | [] -> (adg, "noop")
  | _ ->
    let width =
      match Adg.switches adg with
      | sw :: _ -> (
        match Adg.comp_exn adg sw with
        | Comp.Switch { width_bits } -> width_bits
        | _ -> 64)
      | [] -> 64
    in
    let adg, id = Adg.add adg (Comp.Switch { width_bits = width }) in
    let n = 2 + Rng.int rng 2 in
    let adg = ref adg in
    for _ = 1 to n do
      let peer = Rng.choose rng fabric in
      (* [id] is a new switch and [peer] a PE or switch: both edges are legal *)
      adg := Adg.add_edge !adg peer id;
      adg := Adg.add_edge !adg id peer
    done;
    (!adg, Printf.sprintf "add switch %d" id)

(* Node collapsing + edge-delay preservation (paper Figure 7). *)
let remove_switch rng ~preserve adg usage =
  match random_node_of rng (Adg.switches adg) with
  | None -> (adg, "noop (no switches)")
  | Some sw ->
    let adg =
      if not preserve then adg
      else begin
        let pairs =
          routes_through usage sw
        in
        let adg = ref adg in
        List.iter
          (fun (prev, next) ->
            if prev <> next && Adg.mem !adg prev && Adg.mem !adg next
               && not (Adg.mem_edge !adg prev next)
            then begin
              (try adg := Adg.add_edge !adg prev next
               with Invalid_argument _ -> ());
              (* preserve pipeline balance: the shortened path loses one
                 cycle, so grant the consumer an extra delay-FIFO slot *)
              match Adg.comp !adg next with
              | Some (Comp.Pe p) ->
                adg :=
                  Adg.set_comp !adg next
                    (Comp.Pe { p with delay_fifo = p.delay_fifo + 1 })
              | _ -> ()
            end)
          pairs;
        !adg
      end
    in
    (Adg.remove_node adg sw, Printf.sprintf "remove switch %d%s" sw
       (if preserve then " (collapsed)" else ""))

let add_link rng adg =
  let nodes = Adg.nodes adg in
  match nodes with
  | [] -> (adg, "noop")
  | _ ->
    let src, cs = Rng.choose rng nodes in
    let legal_dsts =
      List.filter
        (fun (dst, cd) -> dst <> src && Adg.edge_legal cs cd && not (Adg.mem_edge adg src dst))
        nodes
    in
    (match random_node_of rng legal_dsts with
    | None -> (adg, "noop (no legal link)")
    | Some (dst, _) ->
      (Adg.add_edge adg src dst, Printf.sprintf "add link %d->%d" src dst))

let remove_link rng ~preserve adg usage =
  let edges = Adg.edges adg in
  let candidates =
    if preserve then
      List.filter (fun (a, b) -> not (link_used usage a b)) edges
    else edges
  in
  match random_node_of rng candidates with
  | None -> (adg, "noop (no removable link)")
  | Some (a, b) -> (Adg.remove_edge adg a b, Printf.sprintf "remove link %d->%d" a b)

let mutate_pe_caps rng ~preserve pool adg usage =
  match random_node_of rng (Adg.pes adg) with
  | None -> (adg, "noop")
  | Some (id, pe) ->
    if Rng.bool rng then begin
      (* grow *)
      match Op.Cap.elements pool with
      | [] -> (adg, "noop")
      | pairs ->
        let p = Rng.choose rng pairs in
        ( Adg.set_comp adg id (Comp.Pe { pe with caps = Op.Cap.add p pe.caps }),
          Printf.sprintf "pe %d add cap" id )
    end
    else begin
      let used = pe_caps_used usage id in
      let removable =
        Op.Cap.elements pe.caps
        |> List.filter (fun (op, dt) ->
               (not preserve) || not (Op.Cap.supports used op dt))
      in
      match removable with
      | [] -> (adg, "noop (all caps used)")
      | _ ->
        let p = Rng.choose rng removable in
        let caps = Op.Cap.remove p pe.caps in
        if Op.Cap.is_empty caps then (adg, "noop (would empty pe)")
        else
          ( Adg.set_comp adg id (Comp.Pe { pe with caps }),
            Printf.sprintf "pe %d drop cap" id )
    end

let mutate_delay_fifo rng adg =
  match random_node_of rng (Adg.pes adg) with
  | None -> (adg, "noop")
  | Some (id, pe) ->
    let delta = if Rng.bool rng then 4 else -4 in
    let delay_fifo = Overgen_util.Stats.clamp_int ~lo:2 ~hi:64 (pe.delay_fifo + delta) in
    ( Adg.set_comp adg id (Comp.Pe { pe with delay_fifo }),
      Printf.sprintf "pe %d fifo %d" id delay_fifo )

let mutate_port rng ~preserve adg usage =
  let ports =
    List.map (fun (id, p) -> (id, p, `In)) (Adg.in_ports adg)
    @ List.map (fun (id, p) -> (id, p, `Out)) (Adg.out_ports adg)
  in
  match random_node_of rng ports with
  | None -> (adg, "noop")
  | Some (id, p, dir) ->
    let p' =
      match Rng.int rng 4 with
      | 0 -> { p with Comp.width_bytes = min 128 (p.width_bytes * 2) }
      | 1 -> { p with Comp.width_bytes = max 2 (p.width_bytes / 2) }
      | 2 ->
        if p.stated && preserve && stated_used usage id then p
        else { p with Comp.stated = not p.stated }
      | _ ->
        { p with Comp.fifo_depth = Overgen_util.Stats.clamp_int ~lo:4 ~hi:64
                   (if Rng.bool rng then p.fifo_depth * 2 else p.fifo_depth / 2) }
    in
    let comp = match dir with `In -> Comp.In_port p' | `Out -> Comp.Out_port p' in
    (Adg.set_comp adg id comp, Printf.sprintf "retune port %d" id)

let add_port rng adg =
  let sws = Adg.switches adg in
  let engines = Adg.engines adg in
  if sws = [] || engines = [] then (adg, "noop")
  else begin
    let width = Rng.choose rng [ 8; 16; 32; 64 ] in
    let stated = Rng.bool rng in
    let base = { (Comp.default_port ~width_bytes:width) with stated } in
    if Rng.bool rng then begin
      let adg, id = Adg.add adg (Comp.In_port base) in
      let adg = ref adg in
      List.iter
        (fun (e, (en : Comp.engine)) ->
          match en.kind with
          | Comp.Dma | Comp.Spad | Comp.Rec | Comp.Gen ->
            adg := Adg.add_edge !adg e id
          | Comp.Reg -> ())
        engines;
      adg := Adg.add_edge !adg id (Rng.choose rng sws);
      (!adg, Printf.sprintf "add in-port %d" id)
    end
    else begin
      let adg, id = Adg.add adg (Comp.Out_port base) in
      let adg = ref adg in
      adg := Adg.add_edge !adg (Rng.choose rng sws) id;
      List.iter
        (fun (e, (en : Comp.engine)) ->
          match en.kind with
          | Comp.Dma | Comp.Spad | Comp.Rec | Comp.Reg ->
            adg := Adg.add_edge !adg id e
          | Comp.Gen -> ())
        engines;
      (!adg, Printf.sprintf "add out-port %d" id)
    end
  end

let remove_port rng ~preserve adg usage =
  let ports = List.map fst (Adg.in_ports adg) @ List.map fst (Adg.out_ports adg) in
  let cands =
    if preserve then List.filter (fun id -> not (used usage id)) ports
    else ports
  in
  match random_node_of rng cands with
  | None -> (adg, "noop (no removable port)")
  | Some id -> (Adg.remove_node adg id, Printf.sprintf "remove port %d" id)

let mutate_engine rng ~preserve adg usage =
  match random_node_of rng (Adg.engines adg) with
  | None -> (adg, "noop")
  | Some (id, e) ->
    let e' =
      match Rng.int rng 4 with
      | 0 ->
        { e with Comp.bandwidth = Overgen_util.Stats.clamp_int ~lo:4 ~hi:128
                   (if Rng.bool rng then e.bandwidth * 2 else e.bandwidth / 2) }
      | 1 when e.kind = Comp.Spad ->
        { e with Comp.capacity = Overgen_util.Stats.clamp_int ~lo:4096 ~hi:(256 * 1024)
                   (if Rng.bool rng then e.capacity * 2 else e.capacity / 2) }
      | 2 ->
        if e.indirect && preserve && indirect_used usage id then e
        else { e with Comp.indirect = not e.indirect }
      | _ ->
        let lo = if preserve then dims_used usage id else 1 in
        let d = if Rng.bool rng then e.max_dims + 1 else e.max_dims - 1 in
        { e with Comp.max_dims = Overgen_util.Stats.clamp_int ~lo ~hi:3 d }
    in
    (Adg.set_comp adg id (Comp.Engine e'), Printf.sprintf "retune engine %d" id)

let add_engine rng adg =
  let kind = Rng.choose rng [ Comp.Dma; Comp.Spad; Comp.Rec; Comp.Gen; Comp.Reg ] in
  let e = Comp.default_engine kind in
  let adg, id = Adg.add adg (Comp.Engine e) in
  let adg = ref adg in
  List.iter
    (fun (ip, _) ->
      match kind with
      | Comp.Dma | Comp.Spad | Comp.Rec | Comp.Gen ->
        adg := Adg.add_edge !adg id ip
      | Comp.Reg -> ())
    (Adg.in_ports !adg);
  List.iter
    (fun (op_, _) ->
      match kind with
      | Comp.Dma | Comp.Spad | Comp.Rec | Comp.Reg ->
        adg := Adg.add_edge !adg op_ id
      | Comp.Gen -> ())
    (Adg.out_ports !adg);
  (!adg, Printf.sprintf "add %s engine %d" (Comp.engine_kind_to_string kind) id)

let remove_engine rng ~preserve adg usage =
  let engines = List.map fst (Adg.engines adg) in
  let cands =
    if preserve then List.filter (fun id -> not (used usage id)) engines
    else engines
  in
  match random_node_of rng cands with
  | None -> (adg, "noop (no removable engine)")
  | Some id -> (Adg.remove_node adg id, Printf.sprintf "remove engine %d" id)

let prune_unused adg usage =
  let count = ref 0 in
  let adg = ref adg in
  (* PE capabilities and delay FIFOs *)
  List.iter
    (fun (id, (pe : Comp.pe)) ->
      let used = pe_caps_used usage id in
      if not (Op.Cap.is_empty used) then begin
        let caps = Op.Cap.inter pe.caps used in
        let caps = if Op.Cap.is_empty caps then pe.caps else caps in
        let delay_needed = max 2 (delay_used usage id) in
        let delay_fifo = min pe.delay_fifo (max delay_needed 4) in
        if Op.Cap.cardinal caps < Op.Cap.cardinal pe.caps || delay_fifo < pe.delay_fifo
        then begin
          incr count;
          adg := Adg.set_comp !adg id (Comp.Pe { pe with caps; delay_fifo })
        end
      end)
    (Adg.pes !adg);
  (* port features *)
  let prune_port dir (id, (p : Comp.port)) =
    if used usage id then begin
      let stated = p.stated && stated_used usage id in
      if stated <> p.stated then begin
        incr count;
        let p' = { p with stated } in
        adg :=
          Adg.set_comp !adg id
            (match dir with `In -> Comp.In_port p' | `Out -> Comp.Out_port p')
      end
    end
  in
  List.iter (prune_port `In) (Adg.in_ports !adg);
  List.iter (prune_port `Out) (Adg.out_ports !adg);
  (* engine features *)
  List.iter
    (fun (id, (e : Comp.engine)) ->
      if used usage id then begin
        let indirect = e.indirect && indirect_used usage id in
        let max_dims = min e.max_dims (max 1 (dims_used usage id)) in
        if indirect <> e.indirect || max_dims <> e.max_dims then begin
          incr count;
          adg := Adg.set_comp !adg id (Comp.Engine { e with indirect; max_dims })
        end
      end)
    (Adg.engines !adg);
  (!adg, !count)

let propose rng ~preserve ~caps_pool adg usage =
  let weighted =
    [
      (1.2, `Add_pe);
      (0.8, `Remove_pe);
      (0.7, `Add_switch);
      (0.7, `Remove_switch);
      (1.0, `Add_link);
      (0.7, `Remove_link);
      (1.0, `Pe_caps);
      (0.5, `Delay_fifo);
      (0.9, `Port);
      (0.5, `Add_port);
      (0.4, `Remove_port);
      (0.9, `Engine);
      (0.35, `Add_engine);
      (0.35, `Remove_engine);
    ]
    @ if preserve then [ (0.9, `Prune) ] else []
  in
  match Rng.choose_weighted rng weighted with
  | `Add_pe -> add_pe rng caps_pool adg
  | `Remove_pe -> remove_pe rng ~preserve adg usage
  | `Add_switch -> add_switch rng adg
  | `Remove_switch -> remove_switch rng ~preserve adg usage
  | `Add_link -> add_link rng adg
  | `Remove_link -> remove_link rng ~preserve adg usage
  | `Pe_caps -> mutate_pe_caps rng ~preserve caps_pool adg usage
  | `Delay_fifo -> mutate_delay_fifo rng adg
  | `Port -> mutate_port rng ~preserve adg usage
  | `Add_port -> add_port rng adg
  | `Remove_port -> remove_port rng ~preserve adg usage
  | `Engine -> mutate_engine rng ~preserve adg usage
  | `Add_engine -> add_engine rng adg
  | `Remove_engine -> remove_engine rng ~preserve adg usage
  | `Prune ->
    let adg, n = prune_unused adg usage in
    (adg, Printf.sprintf "prune %d capabilities" n)
