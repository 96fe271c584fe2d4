open Overgen_adg
open Overgen_mdfg
open Overgen_scheduler

type stream_cmd = {
  engine : Adg.id;
  port : Adg.id option;
  write : bool;
  indirect : bool;
  rec_forward : bool;
  base_offset : int;
  dims : (int * int) list;
  elem_bytes : int;
}

type region_program = {
  rname : string;
  config_writes : int;
  commands : stream_cmd list;
}

type program = {
  kernel : string;
  bitstream : Bitstream.t;
  regions : region_program list;
}

let log2_ceil n =
  let rec go b v = if v >= n then b else go (b + 1) (v * 2) in
  max 1 (go 0 1)

(* ---------------- configuration bitstream ---------------- *)

let config_bitstream (sys : Sys_adg.t) schedules =
  let adg = sys.adg in
  let bs = ref Bitstream.empty in
  let emit value bits = bs := Bitstream.add !bs { Bitstream.value = Int64.of_int value; bits } in
  (* Switch route selects: for each ADG edge (sw -> next) used by a route,
     program which input of the switch drives that output. *)
  List.iter
    (fun (s : Schedule.t) ->
      List.iter
        (fun ((_, _), (r : Schedule.route)) ->
          let rec walk = function
            | a :: b :: (_ :: _ as rest) ->
              (match Adg.comp adg b with
              | Some (Comp.Switch _) ->
                let inputs = Adg.preds adg b in
                let idx_of l x =
                  let rec go i = function
                    | [] -> 0
                    | y :: rest -> if y = x then i else go (i + 1) rest
                  in
                  go 0 l
                in
                emit (idx_of inputs a) (log2_ceil (max 2 (List.length inputs)))
              | _ -> ());
              walk (b :: rest)
            | [ _; _ ] | [ _ ] | [] -> ()
          in
          walk r.hops)
        s.routes;
      (* PE opcodes, delay settings, constants *)
      Schedule.Imap.iter
        (fun inst pe_id ->
          match (Adg.comp adg pe_id, (Dfg.node s.variant.dfg inst).kind) with
          | Some (Comp.Pe p), Dfg.Inst { op; dtype; acc } ->
            emit (Op.Cap.opcode p.caps op dtype) (Op.Cap.opcode_bits p.caps);
            if acc then emit 1 1;
            (* per-operand delay-FIFO settings *)
            List.iter
              (fun ((_, dst), (r : Schedule.route)) ->
                if dst = inst then
                  emit r.delay (log2_ceil (max 2 (p.delay_fifo + 1))))
              s.routes;
            (* constant-register operands *)
            List.iter
              (fun (o : Dfg.operand) ->
                match (Dfg.node s.variant.dfg o.src).kind with
                | Dfg.Const { value; _ } ->
                  emit (int_of_float value land 0xFFFF) 16
                | _ -> ())
              (Dfg.node s.variant.dfg inst).operands
          | _ -> ())
        s.inst_pe;
      (* port templates: width, stated enable *)
      Schedule.Imap.iter
        (fun dfg_port _ ->
          let lanes =
            match (Dfg.node s.variant.dfg dfg_port).kind with
            | Dfg.Input { width_bytes; _ } | Dfg.Output { width_bytes } -> width_bytes
            | _ -> 0
          in
          emit lanes 8;
          let stated =
            List.exists
              (fun (st : Stream.t) ->
                st.port = Some dfg_port && st.reuse.stationary > 1.0)
              s.variant.streams
          in
          if stated then emit 1 1)
        s.port_map)
    schedules;
  !bs

(* ---------------- stream commands ---------------- *)

(* Reconstruct a coarse (stride, trip) shape from the region loops and the
   stream's reuse: up to the 3 innermost loops the engines support. *)
let dims_of_stream (s : Schedule.t) (st : Stream.t) =
  let loops = s.variant.region.Overgen_workload.Ir.loops in
  let rec last3 l =
    if List.length l <= 3 then l else last3 (List.tl l)
  in
  let stride =
    match st.access with
    | Stream.Linear { stride } -> stride
    | Stream.Indirect _ -> 1
  in
  List.mapi
    (fun i (l : Overgen_workload.Ir.loop) ->
      let trip = Overgen_workload.Ir.trip_max l.trip in
      ((if i = 0 then stride else stride * trip), trip))
    (List.rev (last3 loops))

let assemble (sys : Sys_adg.t) schedules =
  let kernel =
    match schedules with
    | (s : Schedule.t) :: _ -> s.variant.kernel
    | [] -> "empty"
  in
  let offsets = Hashtbl.create 16 in
  let next_offset = ref 0 in
  let offset_of (a : Stream.array_info) =
    match Hashtbl.find_opt offsets a.name with
    | Some o -> o
    | None ->
      let o = !next_offset in
      Hashtbl.add offsets a.name o;
      next_offset := o + (a.elems * a.elem_bytes);
      o
  in
  let regions =
    List.map
      (fun (s : Schedule.t) ->
        let commands =
          List.filter_map
            (fun (st : Stream.t) ->
              match Schedule.engine_of_stream s st with
              | None -> None
              | Some engine ->
                let base_offset =
                  match
                    List.find_opt
                      (fun (a : Stream.array_info) -> a.name = st.array)
                      s.variant.arrays
                  with
                  | Some a -> offset_of a
                  | None -> 0
                in
                Some
                  {
                    engine;
                    port =
                      Option.bind st.port (fun p ->
                          Schedule.Imap.find_opt p s.port_map);
                    write = st.dir = Stream.Write;
                    indirect =
                      (match st.access with
                      | Stream.Indirect _ -> true
                      | Stream.Linear _ -> false);
                    rec_forward = Schedule.is_rec s st;
                    base_offset;
                    dims = dims_of_stream s st;
                    elem_bytes = st.elem_bytes;
                  })
            s.variant.streams
        in
        {
          rname = s.variant.region.Overgen_workload.Ir.rname;
          config_writes = 2 + (2 * List.length commands);
          commands;
        })
      schedules
  in
  { kernel; bitstream = config_bitstream sys schedules; regions }

let disassemble p =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "program %s\n" p.kernel);
  Buffer.add_string buf
    (Printf.sprintf "config: %d fields / %d words\n"
       (List.length (Bitstream.fields p.bitstream))
       (Array.length (Bitstream.words p.bitstream)));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "region %s (%d register writes)\n" r.rname r.config_writes);
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf
               "  stream eng=%d port=%s %s%s%s base=%d dims=%s elem=%dB\n"
               c.engine
               (match c.port with Some p -> string_of_int p | None -> "-")
               (if c.write then "write" else "read")
               (if c.indirect then " indirect" else "")
               (if c.rec_forward then " rec" else "")
               c.base_offset
               (String.concat "x"
                  (List.map (fun (s, t) -> Printf.sprintf "(%d,%d)" s t) c.dims))
               c.elem_bytes))
        r.commands)
    p.regions;
  Buffer.contents buf
