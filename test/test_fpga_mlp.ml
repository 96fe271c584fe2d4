open Overgen_adg
open Overgen_fpga
module Mlp = Overgen_mlp.Mlp
module Predict = Overgen_mlp.Predict
module Rng = Overgen_util.Rng

(* ---------------- resource vectors & device ---------------- *)

let test_res_arith () =
  let a = { Res.lut = 10; ff = 20; bram = 1; dsp = 2 } in
  let b = { Res.lut = 5; ff = 5; bram = 0; dsp = 1 } in
  Alcotest.(check bool) "add" true (Res.add a b = { Res.lut = 15; ff = 25; bram = 1; dsp = 3 });
  Alcotest.(check bool) "scale" true (Res.scale 2 b = { Res.lut = 10; ff = 10; bram = 0; dsp = 2 });
  Alcotest.(check bool) "fits" true (Res.fits b ~within:a);
  Alcotest.(check bool) "does not fit" false (Res.fits a ~within:b)

let test_device () =
  Alcotest.(check int) "vu9p luts" 1182240 Device.xcvu9p.capacity.Res.lut;
  Alcotest.(check bool) "usable below capacity" true
    ((Device.usable Device.xcvu9p).Res.lut < Device.xcvu9p.capacity.Res.lut)

(* ---------------- oracle ---------------- *)

let test_fu_costs_ordered () =
  (* f64 units cost more than f32; div more than add *)
  let lut op dt = (Oracle.fu_cost op dt).Res.lut in
  Alcotest.(check bool) "f64 div > f32 div" true (lut Op.Div Dtype.F64 > lut Op.Div Dtype.F32);
  Alcotest.(check bool) "div > add (f64)" true (lut Op.Div Dtype.F64 > lut Op.Add Dtype.F64);
  Alcotest.(check bool) "int mul uses dsp" true
    ((Oracle.fu_cost Op.Mul Dtype.I64).Res.dsp > 0)

let test_pe_unit_sharing () =
  (* adding a second simple int op must NOT add a second ALU *)
  let pe1 = Comp.default_pe (Op.Cap.of_ops [ Op.Add ] [ Dtype.I64 ]) in
  let pe2 = Comp.default_pe (Op.Cap.of_ops [ Op.Add; Op.Sub; Op.Min; Op.Max ] [ Dtype.I64 ]) in
  let c1 = Oracle.pe pe1 ~fan_in:2 ~fan_out:1 in
  let c2 = Oracle.pe pe2 ~fan_in:2 ~fan_out:1 in
  Alcotest.(check int) "one shared ALU" c1.Res.lut c2.Res.lut

let test_switch_cost_scales_with_radix () =
  let small = Oracle.switch ~width_bits:64 ~fan_in:2 ~fan_out:2 in
  let big = Oracle.switch ~width_bits:64 ~fan_in:6 ~fan_out:6 in
  Alcotest.(check bool) "radix grows cost" true (big.Res.lut > small.Res.lut)

let test_spad_brams () =
  let e = { (Comp.default_engine Comp.Spad) with capacity = 64 * 1024 } in
  Alcotest.(check bool) "64KB needs >= 14 BRAM36" true ((Oracle.engine e).Res.bram >= 14)

let test_ring_noc_cheaper () =
  let xbar = Oracle.noc ~topology:System.Crossbar ~tiles:8 ~banks:8 ~noc_bytes:32 () in
  let ring = Oracle.noc ~topology:System.Ring ~tiles:8 ~banks:8 ~noc_bytes:32 () in
  Alcotest.(check bool) "ring cheaper" true (ring.Res.lut < xbar.Res.lut)

let test_u250_bigger () =
  Alcotest.(check bool) "u250 has more LUTs" true
    (Device.u250.capacity.Res.lut > Device.xcvu9p.capacity.Res.lut)

let test_synth_full_general () =
  let f = Oracle.synth_full (Builder.general_overlay ()) in
  let l, _, _, _ = Res.utilization f.res ~device:Device.xcvu9p.capacity in
  Alcotest.(check bool) "general is LUT-hungry" true (l > 0.8 && l < 1.0);
  Alcotest.(check bool) "frequency near the paper's 92.87MHz" true
    (f.freq_mhz > 80.0 && f.freq_mhz < 110.0);
  Alcotest.(check bool) "hours positive" true (f.hours > 0.0);
  List.iter
    (fun cat ->
      Alcotest.(check bool) ("breakdown has " ^ cat) true
        (List.mem_assoc cat f.breakdown))
    [ "pe"; "n/w"; "vp"; "spad"; "dma"; "core"; "noc" ]

let test_synth_deterministic () =
  let sys = Builder.general_overlay () in
  let a = Oracle.synth_full sys and b = Oracle.synth_full sys in
  Alcotest.(check bool) "same result" true (a.res = b.res && a.freq_mhz = b.freq_mhz)

let test_ooc_pessimistic () =
  let rng = Rng.create 3 in
  let pe = Comp.default_pe (Op.Cap.of_ops [ Op.Add; Op.Mul ] [ Dtype.F64 ]) in
  let base = Oracle.pe pe ~fan_in:2 ~fan_out:1 in
  let samples =
    List.init 50 (fun _ -> (Oracle.ooc ~rng (Comp.Pe pe) ~fan_in:2 ~fan_out:1).Res.lut)
  in
  let mean = Overgen_util.Stats.mean (List.map float_of_int samples) in
  Alcotest.(check bool) "ooc mean above in-context cost" true
    (mean > float_of_int base.Res.lut)

(* ---------------- MLP ---------------- *)

let test_mlp_learns_linear () =
  let rng = Rng.create 5 in
  let net = Mlp.create ~rng ~layers:[ 2; 8; 1 ] in
  let data =
    List.init 200 (fun _ ->
        let x = Rng.float rng 1.0 and y = Rng.float rng 1.0 in
        ([| x; y |], [| (0.3 *. x) +. (0.5 *. y) |]))
  in
  Mlp.train net ~rng ~rate:0.02 ~epochs:120 data;
  Alcotest.(check bool) "low loss" true (Mlp.loss net data < 1e-3)

let test_mlp_learns_product () =
  (* a non-linear target: x*y *)
  let rng = Rng.create 6 in
  let net = Mlp.create ~rng ~layers:[ 2; 16; 8; 1 ] in
  let data =
    List.init 400 (fun _ ->
        let x = Rng.float rng 1.0 and y = Rng.float rng 1.0 in
        ([| x; y |], [| x *. y |]))
  in
  Mlp.train net ~rng ~rate:0.01 ~epochs:200 data;
  Alcotest.(check bool) "loss below 5e-3" true (Mlp.loss net data < 5e-3)

let test_scaler_roundtrip () =
  let rows = [ [| 0.0; 10.0 |]; [| 5.0; 20.0 |]; [| 10.0; 40.0 |] ] in
  let s = Mlp.Scaler.fit rows in
  List.iter
    (fun row ->
      let back = Mlp.Scaler.unapply s (Mlp.Scaler.apply s row) in
      Array.iteri
        (fun i v -> Alcotest.(check (float 1e-9)) "roundtrip" row.(i) v)
        back)
    rows;
  let scaled = Mlp.Scaler.apply s [| 10.0; 40.0 |] in
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "max scales to 1" 1.0 v) scaled

(* Training steps over scratch buffers: the minor heap sees a few words
   per call and per epoch, none per sample-step. *)
let test_mlp_train_allocation () =
  let rng = Rng.create 8 in
  let net = Mlp.create ~rng ~layers:[ 4; 16; 8; 2 ] in
  let data =
    List.init 200 (fun _ ->
        (Array.init 4 (fun _ -> Rng.float rng 1.0), Array.init 2 (fun _ -> Rng.float rng 1.0)))
  in
  let epochs = 200 in
  let w0 = Gc.minor_words () in
  Mlp.train net ~rng ~rate:0.002 ~epochs data;
  let words = Gc.minor_words () -. w0 in
  let steps = float_of_int (epochs * List.length data) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words under one per sample-step (%.0f)" words steps)
    true (words < steps)

let fresh_net () = Mlp.create ~rng:(Rng.create 9) ~layers:[ 3; 4; 2 ]

let is_invalid_arg f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* A bad sample is rejected before any weight moves, wherever it sits in
   the list. *)
let test_mlp_train_rejects_widths () =
  let good = ([| 0.1; 0.2; 0.3 |], [| 0.5; 0.5 |]) in
  let probe = [| 0.3; 0.7; 0.1 |] in
  List.iter
    (fun (label, bad) ->
      let net = fresh_net () in
      let before = Mlp.forward net probe in
      Alcotest.(check bool) label true
        (is_invalid_arg (fun () ->
             Mlp.train net ~rng:(Rng.create 1) ~rate:0.1 ~epochs:3
               (List.init 20 (fun _ -> good) @ [ bad ])));
      Alcotest.(check bool) (label ^ ": weights untouched") true
        (Mlp.forward net probe = before))
    [
      ("short x", ([| 0.1; 0.2 |], [| 0.5; 0.5 |]));
      ("long x", ([| 0.1; 0.2; 0.3; 0.4 |], [| 0.5; 0.5 |]));
      ("short y", ([| 0.1; 0.2; 0.3 |], [| 0.5 |]));
      ("long y", ([| 0.1; 0.2; 0.3 |], [| 0.5; 0.5; 0.5 |]));
    ]

let test_mlp_forward_rejects_widths () =
  let net = fresh_net () in
  Alcotest.(check bool) "short input" true
    (is_invalid_arg (fun () -> Mlp.forward net [| 0.1; 0.2 |]));
  Alcotest.(check bool) "long input" true
    (is_invalid_arg (fun () -> Mlp.forward net [| 0.1; 0.2; 0.3; 0.4 |]));
  Alcotest.(check int) "right width" 2 (Array.length (Mlp.forward net [| 0.1; 0.2; 0.3 |]))

let test_scaler_rejects_ragged () =
  Alcotest.(check bool) "longer later row" true
    (is_invalid_arg (fun () -> Mlp.Scaler.fit [ [| 0.0; 1.0 |]; [| 2.0; 3.0; 4.0 |] ]));
  Alcotest.(check bool) "shorter later row" true
    (is_invalid_arg (fun () -> Mlp.Scaler.fit [ [| 0.0; 1.0 |]; [| 2.0 |] ]))

(* ---------------- predictor ---------------- *)

let model () = Models.trained 3

let test_predictor_accuracy () =
  let m = model () in
  List.iter
    (fun (k, _) ->
      let e = Predict.test_error m k in
      Alcotest.(check bool)
        (Printf.sprintf "%s err %.2f below 35%%" (Predict.kind_name k) e)
        true (e < 0.35))
    Predict.default_counts

let test_predictor_pessimism () =
  let m = model () in
  let sys = Builder.general_overlay () in
  let pred = Predict.predict_full m sys in
  let act = (Oracle.synth_full sys).res in
  let ratio = float_of_int pred.Res.lut /. float_of_int act.Res.lut in
  Alcotest.(check bool)
    (Printf.sprintf "pessimistic (%.2fx in [1.0, 1.8])" ratio)
    true
    (ratio >= 1.0 && ratio <= 1.8)

let test_predictor_monotone_in_tiles () =
  let m = model () in
  let sys = Builder.general_overlay () in
  let p tiles =
    (Predict.predict_full m (Sys_adg.with_system sys { sys.system with System.tiles })).Res.lut
  in
  Alcotest.(check bool) "8 tiles > 4 tiles" true (p 8 > p 4)

let test_paper_counts () =
  Alcotest.(check (option int)) "PE count" (Some 100000)
    (List.assoc_opt Predict.Pe_k Predict.paper_counts);
  List.iter2
    (fun (k1, n1) (k2, n2) ->
      Alcotest.(check bool) "same kind order" true (k1 = k2);
      Alcotest.(check int) "1/100 scaling" (n1 / 100) n2)
    Predict.paper_counts Predict.default_counts

let prop_predictions_nonnegative =
  QCheck.Test.make ~name:"predictions are non-negative" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (fan_in, fan_out) ->
      let m = model () in
      let r =
        Predict.predict_comp m (Comp.Switch { width_bits = 64 }) ~fan_in ~fan_out
      in
      r.Res.lut >= 0 && r.Res.ff >= 0 && r.Res.bram >= 0 && r.Res.dsp >= 0)

(* Predict.train fits its four models as pool jobs on two domains; each
   fit's span nests under the caller's span, whichever domain ran it.
   Seed 21 is trained afresh here and kept for the tests that use it. *)
let test_train_spans_parented () =
  let module Obs = Overgen_obs.Obs in
  Obs.Span.reset ();
  Obs.enable ();
  let m =
    Fun.protect ~finally:Obs.disable (fun () ->
        Obs.Span.with_span "train" (fun () -> Predict.train ~seed:21 ()))
  in
  Models.keep 21 m;
  let spans = Obs.Span.spans () in
  Obs.Span.reset ();
  let named n = List.filter (fun (s : Obs.Span.span) -> s.name = n) spans in
  let train = List.hd (named "train") in
  let fits = named "mlp_fit" in
  Alcotest.(check int) "one fit span per kind" 4 (List.length fits);
  List.iter
    (fun (s : Obs.Span.span) ->
      Alcotest.(check int) (List.assoc "kind" s.attrs ^ " fit under train") train.id
        s.parent)
    fits

let tests =
  [
    Alcotest.test_case "res arithmetic" `Quick test_res_arith;
    Alcotest.test_case "device" `Quick test_device;
    Alcotest.test_case "fu cost ordering" `Quick test_fu_costs_ordered;
    Alcotest.test_case "pe unit sharing" `Quick test_pe_unit_sharing;
    Alcotest.test_case "switch radix cost" `Quick test_switch_cost_scales_with_radix;
    Alcotest.test_case "spad brams" `Quick test_spad_brams;
    Alcotest.test_case "ring noc cheaper" `Quick test_ring_noc_cheaper;
    Alcotest.test_case "u250 capacity" `Quick test_u250_bigger;
    Alcotest.test_case "synth general overlay" `Quick test_synth_full_general;
    Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "ooc pessimism" `Quick test_ooc_pessimistic;
    Alcotest.test_case "mlp linear" `Slow test_mlp_learns_linear;
    Alcotest.test_case "mlp product" `Slow test_mlp_learns_product;
    Alcotest.test_case "scaler roundtrip" `Quick test_scaler_roundtrip;
    Alcotest.test_case "mlp train allocation" `Quick test_mlp_train_allocation;
    Alcotest.test_case "mlp train rejects widths" `Quick test_mlp_train_rejects_widths;
    Alcotest.test_case "mlp forward rejects widths" `Quick test_mlp_forward_rejects_widths;
    Alcotest.test_case "scaler rejects ragged rows" `Quick test_scaler_rejects_ragged;
    Alcotest.test_case "predictor accuracy" `Slow test_predictor_accuracy;
    Alcotest.test_case "predictor pessimism" `Slow test_predictor_pessimism;
    Alcotest.test_case "predictor monotone" `Slow test_predictor_monotone_in_tiles;
    Alcotest.test_case "Table I counts" `Quick test_paper_counts;
    QCheck_alcotest.to_alcotest prop_predictions_nonnegative;
    Alcotest.test_case "train jobs under the caller's span" `Quick
      test_train_spans_parented;
  ]
