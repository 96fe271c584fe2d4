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
      let pool =
        Op.Cap.of_ops [ Op.Add; Op.Mul; Op.Max ] [ Dtype.I16; Dtype.F64 ]
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
        Serial.to_string sys' = text
        && Serial.fingerprint sys' = Serial.fingerprint sys)

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
    ]
