(* Cross-cutting property tests on the core data structures and invariants:
   affine algebra, capability sets, bitstream packing, compiler invariants
   over randomized unrolls, mutation/repair robustness. *)

open Overgen_adg
open Overgen_workload
open Overgen_mdfg
open Overgen_scheduler
module Bitstream = Overgen_isa.Bitstream
module Mutate = Overgen_dse.Mutate
module Rng = Overgen_util.Rng

(* ---------------- affine algebra ---------------- *)

let gen_affine =
  QCheck.Gen.(
    let* n = int_range 0 3 in
    let* terms =
      list_size (return n)
        (pair (oneofl [ "i"; "j"; "k"; "t" ]) (int_range (-8) 8))
    in
    let* const = int_range (-16) 16 in
    return (Ir.affine ~const terms))

let arb_affine = QCheck.make gen_affine

let prop_affine_subst_identity =
  QCheck.Test.make ~name:"subst with scale 1 offset 0 is identity" ~count:200
    arb_affine
    (fun a ->
      Ir.affine_equal a (Ir.affine_subst_scaled a ~var:"i" ~scale:1 ~offset:0))

let prop_affine_subst_compose =
  QCheck.Test.make ~name:"subst composes multiplicatively" ~count:200 arb_affine
    (fun a ->
      (* substituting i -> 2i+1 then i -> 2i equals i -> 4i+1 *)
      let once = Ir.affine_subst_scaled a ~var:"i" ~scale:2 ~offset:1 in
      let twice = Ir.affine_subst_scaled once ~var:"i" ~scale:2 ~offset:0 in
      let direct = Ir.affine_subst_scaled a ~var:"i" ~scale:4 ~offset:1 in
      Ir.affine_equal twice direct)

let prop_affine_shift =
  QCheck.Test.make ~name:"shift adds to the constant only" ~count:200
    QCheck.(pair arb_affine (int_range (-100) 100))
    (fun (a, off) ->
      let b = Ir.affine_shift a off in
      b.Ir.const = a.Ir.const + off && b.Ir.terms = a.Ir.terms)

(* ---------------- capability sets ---------------- *)

let arb_ops = QCheck.(list_of_size (Gen.int_range 1 6) (oneofl Op.all))

let prop_cap_product =
  QCheck.Test.make ~name:"of_ops builds the full cartesian product" ~count:100
    arb_ops
    (fun ops ->
      let dts = [ Dtype.I16; Dtype.F64 ] in
      let caps = Op.Cap.of_ops ops dts in
      List.for_all
        (fun op -> List.for_all (fun dt -> Op.Cap.supports caps op dt) dts)
        ops)

let prop_cap_counts =
  QCheck.Test.make ~name:"cap cardinality = ops x dtypes (deduped)" ~count:100
    arb_ops
    (fun ops ->
      let uniq = List.sort_uniq Op.compare ops in
      let caps = Op.Cap.of_ops ops [ Dtype.I32; Dtype.I64; Dtype.F32 ] in
      Op.Cap.cardinal caps = 3 * List.length uniq)

(* The bitset against a reference model: a [Set.Make] over the pairs with
   [Stdlib.compare], which orders constant constructors by declaration,
   so both walk pairs in the same order. *)
module Ref_cap = Set.Make (struct
  type t = Op.t * Dtype.t

  let compare = Stdlib.compare
end)

let all_pairs =
  List.concat_map (fun op -> List.map (fun dt -> (op, dt)) Dtype.all) Op.all

let ref_to_string r =
  Ref_cap.elements r
  |> List.map (fun (op, dt) -> Op.to_string op ^ "." ^ Dtype.to_string dt)
  |> String.concat ","

let ref_opcode_bits r =
  let rec go b v = if v >= max 2 (Ref_cap.cardinal r) then b else go (b + 1) (v * 2) in
  max 1 (go 0 1)

let test_cap_keys_follow_compare () =
  let sign x = compare x 0 in
  List.iter
    (fun (op, dt) ->
      List.iter
        (fun (op', dt') ->
          Alcotest.(check int) "key order = Stdlib.compare order"
            (sign (Stdlib.compare (op, dt) (op', dt')))
            (sign (compare (Op.Cap.key op dt) (Op.Cap.key op' dt'))))
        all_pairs)
    all_pairs;
  Alcotest.(check int) "n_keys" (List.length all_pairs) Op.Cap.n_keys;
  Alcotest.(check (list int)) "dense keys"
    (List.init Op.Cap.n_keys Fun.id)
    (List.map (fun (op, dt) -> Op.Cap.key op dt) all_pairs)

type cap_cmd =
  | C_add of (Op.t * Dtype.t)
  | C_remove of (Op.t * Dtype.t)
  | C_inter of (Op.t * Dtype.t) list
  | C_of_ops of Op.t list * Dtype.t list

let gen_pair = QCheck.Gen.(pair (oneofl Op.all) (oneofl Dtype.all))

let gen_cap_cmd =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun p -> C_add p) gen_pair);
        (3, map (fun p -> C_remove p) gen_pair);
        (1, map (fun l -> C_inter l) (list_size (int_range 0 60) gen_pair));
        ( 1,
          map2
            (fun ops dts -> C_of_ops (ops, dts))
            (list_size (int_range 0 17) (oneofl Op.all))
            (list_size (int_range 0 6) (oneofl Dtype.all)) );
      ])

let cap_agrees c r =
  let walked = List.rev (Op.Cap.fold (fun p acc -> p :: acc) c []) in
  let iterated = ref [] in
  Op.Cap.iter (fun p -> iterated := p :: !iterated) c;
  let elements = Ref_cap.elements r in
  Op.Cap.elements c = elements
  && walked = elements
  && List.rev !iterated = elements
  && Op.Cap.cardinal c = Ref_cap.cardinal r
  && Op.Cap.is_empty c = Ref_cap.is_empty r
  && Op.Cap.to_string c = ref_to_string r
  && Op.Cap.opcode_bits c = ref_opcode_bits r
  && List.for_all
       (fun ((op, dt) as p) ->
         Op.Cap.supports c op dt = Ref_cap.mem p r
         && Op.Cap.exists (fun q -> q = p) c = Ref_cap.mem p r)
       all_pairs
  && List.for_all
       (fun (op, dt) ->
         match List.find_index (fun q -> q = (op, dt)) elements with
         | Some rank -> Op.Cap.opcode c op dt = rank
         | None -> (
           match Op.Cap.opcode c op dt with
           | _ -> false
           | exception Invalid_argument _ -> true))
       all_pairs

let prop_cap_matches_reference =
  QCheck.Test.make ~name:"Cap bitset agrees with a Set.Make reference model"
    ~count:300
    QCheck.(
      make
        Gen.(pair (list_size (int_range 0 40) gen_pair) (list_size (int_range 0 30) gen_cap_cmd)))
    (fun (init, cmds) ->
      let c = ref (Op.Cap.of_list init) and r = ref (Ref_cap.of_list init) in
      cap_agrees !c !r
      && List.for_all
           (fun cmd ->
             (match cmd with
             | C_add p ->
               c := Op.Cap.add p !c;
               r := Ref_cap.add p !r
             | C_remove p ->
               c := Op.Cap.remove p !c;
               r := Ref_cap.remove p !r
             | C_inter l ->
               c := Op.Cap.inter !c (Op.Cap.of_list l);
               r := Ref_cap.inter !r (Ref_cap.of_list l)
             | C_of_ops (ops, dts) ->
               c := Op.Cap.of_ops ops dts;
               r :=
                 Ref_cap.of_list
                   (List.concat_map (fun op -> List.map (fun dt -> (op, dt)) dts) ops));
             cap_agrees !c !r)
           cmds)

(* The scheduler's capability test runs for every candidate PE: a bit test
   on an immutable bitset, with nothing to allocate. *)
let test_cap_supports_allocates_nothing () =
  let caps = Op.Cap.of_ops [ Op.Add; Op.Mul; Op.Acc ] [ Dtype.I16; Dtype.F64 ] in
  let ops = Array.of_list Op.all and dts = Array.of_list Dtype.all in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    for i = 0 to Array.length ops - 1 do
      for j = 0 to Array.length dts - 1 do
        if Op.Cap.supports caps ops.(i) dts.(j) then incr hits
      done
    done
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "pairs found" 600 !hits;
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

(* ---------------- bitstream packing ---------------- *)

let arb_fields =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 1 40)
        (let* bits = int_range 1 63 in
         let* v = int_range 0 ((1 lsl min bits 30) - 1) in
         return { Bitstream.value = Int64.of_int v; bits }))

let prop_bitstream_bit_count =
  QCheck.Test.make ~name:"bitstream bit count is the sum of field widths"
    ~count:100 arb_fields
    (fun fields ->
      let bs = List.fold_left Bitstream.add Bitstream.empty fields in
      Bitstream.bit_count bs
      = List.fold_left (fun acc f -> acc + f.Bitstream.bits) 0 fields)

let prop_bitstream_verifies =
  QCheck.Test.make ~name:"every emitted bitstream verifies" ~count:100 arb_fields
    (fun fields ->
      let bs = List.fold_left Bitstream.add Bitstream.empty fields in
      Bitstream.verify (Bitstream.words bs))

let prop_bitstream_unpack =
  QCheck.Test.make ~name:"packed fields are recoverable in order" ~count:100
    arb_fields
    (fun fields ->
      let bs = List.fold_left Bitstream.add Bitstream.empty fields in
      let w = Bitstream.words bs in
      let payload = Array.sub w 1 (Array.length w - 2) in
      (* re-extract each field LSB-first *)
      let pos = ref 0 in
      List.for_all
        (fun f ->
          let v = ref 0L in
          for b = f.Bitstream.bits - 1 downto 0 do
            let word = (!pos + b) / 64 and off = (!pos + b) mod 64 in
            let bit = Int64.logand (Int64.shift_right_logical payload.(word) off) 1L in
            v := Int64.logor (Int64.shift_left !v 1) bit
          done;
          pos := !pos + f.Bitstream.bits;
          !v = f.Bitstream.value)
        fields)

(* ---------------- compiler invariants over random unrolls ---------------- *)

let arb_kernel_unroll =
  QCheck.make
    QCheck.Gen.(
      let* k = oneofl Kernels.names in
      let* u = oneofl [ 1; 2; 4; 8 ] in
      return (k, u))

let prop_compile_dfg_valid =
  QCheck.Test.make ~name:"every compiled DFG validates" ~count:60
    arb_kernel_unroll
    (fun (name, u) ->
      let k = Kernels.find name in
      let r = List.hd k.Ir.regions in
      let u = min u (Ir.trip_max (Ir.innermost r).trip) in
      let v = Compile.compile_region k r ~tuned:false ~unroll:u in
      match Dfg.validate v.dfg with Ok () -> true | Error _ -> false)

let prop_streams_have_ports_or_index =
  QCheck.Test.make ~name:"streams bind to ports except index streams" ~count:60
    arb_kernel_unroll
    (fun (name, u) ->
      let k = Kernels.find name in
      let r = List.hd k.Ir.regions in
      let u = min u (Ir.trip_max (Ir.innermost r).trip) in
      let v = Compile.compile_region k r ~tuned:false ~unroll:u in
      List.for_all
        (fun (s : Stream.t) ->
          match s.port with
          | Some p -> (
            match (Dfg.node v.dfg p).kind with
            | Dfg.Input _ -> s.dir = Stream.Read
            | Dfg.Output _ -> s.dir = Stream.Write
            | _ -> false)
          | None -> s.dir = Stream.Read)
        v.streams)

let prop_port_slots_cover_ports =
  QCheck.Test.make ~name:"port_slots cover every DFG port" ~count:60
    arb_kernel_unroll
    (fun (name, u) ->
      let k = Kernels.find name in
      let r = List.hd k.Ir.regions in
      let u = min u (Ir.trip_max (Ir.innermost r).trip) in
      let v = Compile.compile_region k r ~tuned:false ~unroll:u in
      List.for_all
        (fun (n : Dfg.node) ->
          match n.kind with
          | Dfg.Input _ | Dfg.Output _ -> List.mem_assoc n.id v.port_slots
          | _ -> true)
        (Dfg.nodes v.dfg))

(* ---------------- mutation / repair robustness ---------------- *)

let prop_mutations_never_break_graph_invariants =
  QCheck.Test.make ~name:"random mutation chains keep the ADG self-consistent"
    ~count:15
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let sys = Builder.general_overlay () in
      let pool = Op.Cap.of_ops [ Op.Add; Op.Mul; Op.Div ] [ Dtype.I64; Dtype.F64 ] in
      let usage = Mutate.usage_of [] in
      let adg = ref sys.Sys_adg.adg in
      for _ = 1 to 30 do
        let adg', _ = Mutate.propose rng ~preserve:false ~caps_pool:pool !adg usage in
        adg := adg'
      done;
      (* every edge endpoint must exist and be legal *)
      List.for_all
        (fun (a, b) ->
          Adg.mem !adg a && Adg.mem !adg b
          && Adg.edge_legal (Adg.comp_exn !adg a) (Adg.comp_exn !adg b))
        (Adg.edges !adg))

let prop_repair_or_fail_cleanly =
  QCheck.Test.make ~name:"repair either succeeds validly or errors" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let sys = Builder.general_overlay () in
      match Spatial.schedule_app sys (Compile.compile (Kernels.find "vecmax")) with
      | Error _ -> false
      | Ok scheds ->
        let usage = Mutate.usage_of scheds in
        let pool = Op.Cap.of_ops [ Op.Max ] [ Dtype.I16 ] in
        let adg, _ =
          Mutate.propose rng ~preserve:true ~caps_pool:pool sys.Sys_adg.adg usage
        in
        let sys' = Sys_adg.with_adg sys adg in
        (match Spatial.repair sys' scheds with
        | Ok repaired ->
          List.for_all
            (fun s -> match Schedule.validate s sys' with Ok () -> true | Error _ -> false)
            repaired
        | Error _ -> true))

(* ---------------- serialization round trip ---------------- *)

let prop_serial_round_trip =
  QCheck.Test.make
    ~name:"sysADG serialization round-trips (text, structure, fingerprint)"
    ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let base = Builder.general_overlay () in
      (* a random pool, so PEs carry sparse sets across both key words *)
      let pool =
        Op.Cap.of_list
          ((Op.Add, Dtype.I64) :: List.filter (fun _ -> Rng.int rng 4 = 0) all_pairs)
      in
      let usage = Mutate.usage_of [] in
      let adg = ref base.Sys_adg.adg in
      for _ = 1 to Rng.int rng 20 do
        let adg', _ = Mutate.propose rng ~preserve:false ~caps_pool:pool !adg usage in
        adg := adg'
      done;
      let system = Rng.choose rng (System.candidates ()) in
      let sys = Sys_adg.make !adg system in
      let text = Serial.to_string sys in
      match Serial.of_string text with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok sys' ->
        (* re-serializing the parse reproduces the text exactly, so the
           structural fingerprint is stable across save/load *)
        let caps (s : Sys_adg.t) =
          List.map (fun (id, (pe : Comp.pe)) -> (id, pe.caps)) (Adg.pes s.adg)
        in
        Serial.to_string sys' = text
        && Serial.fingerprint sys' = Serial.fingerprint sys
        && caps sys' = caps sys)

(* ---------------- scheduler topology ---------------- *)

(* The scheduler's topology of [adg] as [Spatial.topo_text] prints it,
   read through the Adg API: successors in order with CSR edge ids and
   lane capacities, then the per-kind id lists. *)
let reference_topo_text adg =
  let b = Buffer.create 4096 in
  let width = function
    | Comp.Switch { width_bits } -> width_bits
    | Comp.Pe p -> p.width_bits
    | Comp.In_port _ | Comp.Out_port _ | Comp.Engine _ -> -1
  in
  let lanes a b =
    let wa = width (Adg.comp_exn adg a) and wb = width (Adg.comp_exn adg b) in
    if wa >= 0 && wb >= 0 then max 1 (min wa wb / 64)
    else if wa >= 0 then max 1 (wa / 64 * 4)
    else if wb >= 0 then max 1 (wb / 64 * 4)
    else 16
  in
  let edge = ref 0 in
  List.iter
    (fun (a, _) ->
      Printf.bprintf b "%d:" a;
      List.iter
        (fun s ->
          Printf.bprintf b " %d#%d/%d" s !edge (lanes a s);
          incr edge)
        (Adg.succs adg a);
      Buffer.add_char b '\n')
    (Adg.nodes adg);
  let ids name l =
    Printf.bprintf b "%s:%s\n" name
      (String.concat "" (List.map (fun id -> " " ^ string_of_int id) l))
  in
  let engines kind = List.map fst (Adg.engines_of_kind adg kind) in
  let first = function id :: _ -> id | [] -> -1 in
  ids "pe" (List.map fst (Adg.pes adg));
  ids "in" (List.map fst (Adg.in_ports adg));
  ids "out" (List.map fst (Adg.out_ports adg));
  ids "spad" (engines Comp.Spad);
  ids "dma" (engines Comp.Dma);
  Printf.bprintf b "rec: %d\nreg: %d\nfifo: %d\n"
    (first (engines Comp.Rec))
    (first (engines Comp.Reg))
    (List.fold_left (fun acc (_, (p : Comp.port)) -> max acc p.fifo_depth) 0
       (Adg.in_ports adg));
  Buffer.contents b

(* Hop counts from [src] through switches only (the source itself may be
   any node), by a breadth-first search over Adg.succs. *)
let reference_bfs adg src =
  let d = Array.make (max 1 (Adg.max_id adg + 1)) max_int in
  let q = Queue.create () in
  d.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let cur = Queue.pop q in
    let through =
      cur = src
      || match Adg.comp_exn adg cur with Comp.Switch _ -> true | _ -> false
    in
    if through then
      List.iter
        (fun next ->
          if d.(next) = max_int then begin
            d.(next) <- d.(cur) + 1;
            Queue.add next q
          end)
        (Adg.succs adg cur)
  done;
  d

let dsp_apps = lazy (Overgen_dse.Dse.compile_apps ~tuned:false (Kernels.of_suite Suite.Dsp))
let topo_bases = lazy [| Test_scheduler.seed_mesh_3x4 (); Builder.general_overlay () |]

let prop_scheduler_topology =
  QCheck.Test.make
    ~name:"scheduler topology, BFS maps and cold/warm schedules match the ADG"
    ~count:20
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let apps = Lazy.force dsp_apps and bases = Lazy.force topo_bases in
      let base = bases.(seed mod 2) in
      let pool = Overgen_dse.Dse.caps_pool apps in
      let usage = Mutate.usage_of [] in
      let adg = ref base.Sys_adg.adg in
      for i = 0 to seed mod 8 do
        let adg', _ =
          Mutate.propose rng ~preserve:(i mod 2 = 0) ~caps_pool:pool !adg usage
        in
        adg := adg'
      done;
      let adg = !adg in
      let sys = Sys_adg.with_adg base adg in
      let topo = Spatial.topo_text adg in
      if topo <> reference_topo_text adg then
        QCheck.Test.fail_reportf "topology differs:\n%s\nwant:\n%s" topo
          (reference_topo_text adg);
      List.iter
        (fun (src, _) ->
          if Spatial.bfs_map adg src <> reference_bfs adg src then
            QCheck.Test.fail_reportf "BFS map from %d differs" src)
        (Adg.nodes adg);
      let app = List.nth apps (seed mod List.length apps) in
      (* the slot holds [adg] with its BFS maps: warm; then evicted: cold *)
      let warm = Test_scheduler.schedule_digest (Spatial.schedule_app sys app) in
      ignore (Spatial.topo_text base.Sys_adg.adg);
      let cold = Test_scheduler.schedule_digest (Spatial.schedule_app sys app) in
      if warm <> cold then QCheck.Test.fail_reportf "warm %s, cold %s" warm cold;
      true)

(* ---------------- the DSE iteration's tail ---------------- *)

module Predict = Overgen_mlp.Predict

(* Incremental tile resources against a fresh prediction, over random
   mutation chains from both seed graphs.  Candidates are accepted and
   rejected in turn, and each rejection is followed by a prediction of
   the design it returns to, so the memo sees a move undone. *)
let prop_incremental_tile_resources =
  QCheck.Test.make ~name:"incremental tile resources = fresh prediction over mutation chains"
    ~count:20
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let model = Models.trained 7 in
      let apps = Lazy.force dsp_apps and bases = Lazy.force topo_bases in
      let pool = Overgen_dse.Dse.caps_pool apps in
      let usage = Mutate.usage_of [] in
      let memo = Predict.memo () in
      let check step adg =
        let fresh = Predict.predict_accel model adg in
        if Predict.predict_accel ~memo model adg <> fresh then
          QCheck.Test.fail_reportf "step %d: incremental prediction differs" step
      in
      let cur = ref bases.(seed mod 2).Sys_adg.adg in
      check 0 !cur;
      for i = 1 to 16 do
        let cand, _ = Mutate.propose rng ~preserve:(i mod 3 = 0) ~caps_pool:pool !cur usage in
        check i cand;
        if i mod 2 = 0 then cur := cand else check i !cur
      done;
      true)

(* The usage summary as it was built on hash tables and per-node pair
   lists, kept as the oracle for [Mutate.usage_of]. *)
module Ref_usage = struct
  type t = {
    n : int;
    used_nodes : bool array;
    used_links : (int, unit) Hashtbl.t;
    pe_caps_used : Op.Cap.t array;
    stated_used : bool array;
    indirect_used : bool array;
    dims_used : int array;
    delay_used : int array;
    routes_through : (Adg.id * Adg.id) list array;
  }

  let max_id schedules =
    List.fold_left
      (fun acc (s : Schedule.t) ->
        let top _ id acc = max acc id in
        let acc = Schedule.Imap.fold top s.inst_pe acc in
        let acc = Schedule.Imap.fold top s.port_map acc in
        let acc = List.fold_left (fun acc (_, id) -> max acc id) acc s.array_engine in
        let acc = List.fold_left (fun acc (_, id) -> max acc id) acc s.rec_streams in
        let acc = List.fold_left (fun acc (_, id) -> max acc id) acc s.reg_streams in
        List.fold_left
          (fun acc (_, (r : Schedule.route)) -> List.fold_left max acc r.hops)
          acc s.routes)
      (-1) schedules

  let of_schedules schedules =
    let n = max_id schedules + 1 in
    let u =
      {
        n;
        used_nodes = Array.make n false;
        used_links = Hashtbl.create 128;
        pe_caps_used = Array.make n Op.Cap.empty;
        stated_used = Array.make n false;
        indirect_used = Array.make n false;
        dims_used = Array.make n 1;
        delay_used = Array.make n 0;
        routes_through = Array.make n [];
      }
    in
    let mark id = u.used_nodes.(id) <- true in
    List.iter
      (fun (s : Schedule.t) ->
        let v = s.variant in
        Schedule.Imap.iter
          (fun inst pe ->
            mark pe;
            match (Dfg.node v.dfg inst).kind with
            | Dfg.Inst { op; dtype; _ } ->
              u.pe_caps_used.(pe) <- Op.Cap.add (op, dtype) u.pe_caps_used.(pe)
            | Dfg.Const _ | Dfg.Input _ | Dfg.Output _ -> ())
          s.inst_pe;
        Schedule.Imap.iter (fun _ hw -> mark hw) s.port_map;
        List.iter (fun (_, e) -> mark e) s.array_engine;
        List.iter (fun (_, e) -> mark e) s.rec_streams;
        List.iter (fun (_, e) -> mark e) s.reg_streams;
        List.iter
          (fun (st : Stream.t) ->
            (match st.port with
            | Some dfg_port -> (
              match Schedule.Imap.find_opt dfg_port s.port_map with
              | Some hw when st.reuse.stationary > 1.0 -> u.stated_used.(hw) <- true
              | Some _ | None -> ())
            | None -> ());
            let need e =
              (match st.access with
              | Stream.Indirect _ -> u.indirect_used.(e) <- true
              | Stream.Linear _ -> ());
              u.dims_used.(e) <- max u.dims_used.(e) st.dims
            in
            Option.iter need (Schedule.engine_of_stream s st);
            Option.iter need (List.assoc_opt st.array s.array_engine))
          v.streams;
        List.iter
          (fun ((_, dst), (r : Schedule.route)) ->
            (match Schedule.Imap.find_opt dst s.inst_pe with
            | Some pe -> u.delay_used.(pe) <- max u.delay_used.(pe) r.delay
            | None -> ());
            let rec walk = function
              | a :: (b :: _ as rest) ->
                mark a;
                mark b;
                Hashtbl.replace u.used_links ((a * n) + b) ();
                (match rest with
                | b' :: c :: _ -> u.routes_through.(b') <- (a, c) :: u.routes_through.(b')
                | _ -> ());
                walk rest
              | [ _ ] | [] -> ()
            in
            walk r.hops)
          s.routes)
      schedules;
    u

  (* [Mutate.usage_text]'s format *)
  let text u =
    let ok id = id >= 0 && id < u.n in
    let get a d id = if ok id then a.(id) else d in
    let b = Buffer.create 4096 in
    Printf.bprintf b "n: %d\n" u.n;
    for id = -1 to u.n do
      Printf.bprintf b "%d: used=%b caps=%s stated=%b indirect=%b dims=%d delay=%d through=" id
        (get u.used_nodes false id)
        (Op.Cap.to_string (get u.pe_caps_used Op.Cap.empty id))
        (get u.stated_used false id) (get u.indirect_used false id)
        (get u.dims_used 1 id) (get u.delay_used 0 id);
      List.iter (fun (a, c) -> Printf.bprintf b " %d>%d" a c) (get u.routes_through [] id);
      Buffer.add_char b '\n'
    done;
    Buffer.add_string b "links:";
    for a = -1 to u.n do
      for c = -1 to u.n do
        if ok a && ok c && Hashtbl.mem u.used_links ((a * u.n) + c) then
          Printf.bprintf b " %d>%d" a c
      done
    done;
    Buffer.add_char b '\n';
    Buffer.contents b
end

(* Each base graph's DSP schedules, the apps that fit on it only. *)
let base_schedules =
  lazy
    (Array.map
       (fun sys ->
         List.map
           (fun app -> (app, Result.to_option (Spatial.schedule_app sys app)))
           (Lazy.force dsp_apps))
       (Lazy.force topo_bases))

(* [Mutate.usage_of] against the oracle on [], on a base graph's
   schedules, and on the schedules of a chain of DSE steps from it: a
   preserving move proposed from the current usage, each app rescheduled
   from its prior, the step taken when every app still maps. *)
let prop_usage_matches_reference =
  QCheck.Test.make ~name:"usage summary = hash-table reference on DSE steps" ~count:12
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let bases = Lazy.force topo_bases in
      let base = bases.(seed mod 2) in
      let pool = Overgen_dse.Dse.caps_pool (Lazy.force dsp_apps) in
      let agree what scheds =
        let got = Mutate.usage_text (Mutate.usage_of scheds)
        and want = Ref_usage.text (Ref_usage.of_schedules scheds) in
        if got <> want then QCheck.Test.fail_reportf "%s:\n%s\nwant:\n%s" what got want
      in
      agree "no schedules" [];
      let cur =
        ref
          ( base,
            List.filter_map
              (fun (app, s) -> Option.map (fun s -> (app, s)) s)
              (Lazy.force base_schedules).(seed mod 2) )
      in
      agree "base" (List.concat_map snd (snd !cur));
      for step = 1 to 1 + (seed mod 4) do
        let sys, per_app = !cur in
        let usage = Mutate.usage_of (List.concat_map snd per_app) in
        let adg', desc = Mutate.propose rng ~preserve:true ~caps_pool:pool sys.Sys_adg.adg usage in
        let sys' = Sys_adg.with_adg sys adg' in
        let per_app' =
          List.filter_map
            (fun (app, prior) ->
              match Spatial.reschedule sys' app ~prior with
              | Ok (s, _) -> Some (app, s)
              | Error _ -> None)
            per_app
        in
        agree (Printf.sprintf "step %d (%s)" step desc) (List.concat_map snd per_app');
        if List.length per_app' = List.length per_app then cur := (sys', per_app')
      done;
      true)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_serial_round_trip;
      prop_affine_subst_identity;
      prop_affine_subst_compose;
      prop_affine_shift;
      prop_cap_product;
      prop_cap_counts;
      prop_bitstream_bit_count;
      prop_bitstream_verifies;
      prop_bitstream_unpack;
      prop_compile_dfg_valid;
      prop_streams_have_ports_or_index;
      prop_port_slots_cover_ports;
      prop_mutations_never_break_graph_invariants;
      prop_repair_or_fail_cleanly;
      prop_cap_matches_reference;
    ]
  @ [
      Alcotest.test_case "cap keys follow Stdlib.compare order" `Quick
        test_cap_keys_follow_compare;
      Alcotest.test_case "Cap.supports allocates nothing" `Quick
        test_cap_supports_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_scheduler_topology;
      QCheck_alcotest.to_alcotest prop_incremental_tile_resources;
      QCheck_alcotest.to_alcotest prop_usage_matches_reference;
    ]
