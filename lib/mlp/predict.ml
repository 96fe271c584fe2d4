open Overgen_adg
open Overgen_fpga
module Rng = Overgen_util.Rng
module Pool = Overgen_par.Pool
module Obs = Overgen_obs.Obs

type kind = Pe_k | Switch_k | In_port_k | Out_port_k

let kind_name = function
  | Pe_k -> "Processing Elements"
  | Switch_k -> "Switches"
  | In_port_k -> "Input Port"
  | Out_port_k -> "Output Port"

let paper_counts =
  [ (Pe_k, 100_000); (Switch_k, 56_700); (In_port_k, 34_412); (Out_port_k, 25_796) ]

let default_counts =
  List.map (fun (k, n) -> (k, n / 100)) paper_counts

type model = {
  net : Mlp.t;
  in_scaler : Mlp.Scaler.s;
  out_scaler : Mlp.Scaler.s;
  test_err : float;
  n_samples : int;
}

type t = {
  pe_m : model;
  sw_m : model;
  ip_m : model;
  op_m : model;
}

(* ---------- feature extraction ---------- *)

(* The PE's cost is driven by which hardware unit classes it instantiates
   (one int ALU, per-precision float IPs, dividers, ...), so the features
   expose exactly those, plus the structural knobs.  The per-class presence
   flags are what make the regression well-posed. *)
let pe_features (p : Comp.pe) ~fan_in ~fan_out =
  let has f = if Op.Cap.exists f p.caps then 1.0 else 0.0 in
  let unit cls dt_sel =
    has (fun (op, dt) -> Op.arith_class op = cls && dt_sel dt)
  in
  let is_int dt = not (Dtype.is_float dt) in
  let int_width =
    Op.Cap.fold
      (fun (_, dt) acc -> if is_int dt then max acc (Dtype.bits dt) else acc)
      p.caps 0
  in
  [|
    float_of_int p.width_bits;
    float_of_int p.delay_fifo;
    float_of_int p.const_regs;
    (if p.predication then 1.0 else 0.0);
    float_of_int fan_in;
    float_of_int fan_out;
    float_of_int int_width;
    unit `Simple is_int;
    unit `Simple (( = ) Dtype.F32);
    unit `Simple (( = ) Dtype.F64);
    unit `Mul is_int;
    unit `Mul (( = ) Dtype.F32);
    unit `Mul (( = ) Dtype.F64);
    unit `Div is_int;
    unit `Div (( = ) Dtype.F32);
    unit `Div (( = ) Dtype.F64);
    unit `Sqrt is_int;
    unit `Sqrt (( = ) Dtype.F32);
    unit `Sqrt (( = ) Dtype.F64);
  |]

let sw_features ~width_bits ~fan_in ~fan_out =
  [| float_of_int width_bits; float_of_int fan_in; float_of_int fan_out |]

let port_features (p : Comp.port) =
  [|
    float_of_int p.width_bytes;
    float_of_int p.fifo_depth;
    (if p.padding then 1.0 else 0.0);
    (if p.stated then 1.0 else 0.0);
  |]

(* Targets are regressed in log space: component resources span several
   orders of magnitude and a linear-space MSE lets the largest designs
   dominate the fit. *)
let res_to_targets (r : Res.t) =
  let f x = log (1.0 +. float_of_int x) in
  [| f r.lut; f r.ff; f r.bram; f r.dsp |]

let targets_to_res a =
  let g i = max 0 (int_of_float (Float.round (exp a.(i) -. 1.0))) in
  { Res.lut = g 0; ff = g 1; bram = g 2; dsp = g 3 }

(* ---------- dataset generation ---------- *)

let random_caps rng =
  let dtypes =
    let pool = [ [ Dtype.I16 ]; [ Dtype.I64 ]; [ Dtype.F32 ]; [ Dtype.F64 ];
                 [ Dtype.I64; Dtype.F64 ]; Dtype.all ] in
    Rng.choose rng pool
  in
  let ops =
    let base = [ Op.Add; Op.Sub ] in
    let extras =
      List.filter (fun _ -> Rng.bool rng)
        [ Op.Mul; Op.Div; Op.Sqrt; Op.Min; Op.Max; Op.Abs; Op.Shl; Op.Shr;
          Op.Select; Op.Acc ]
    in
    base @ extras
  in
  Op.Cap.of_ops ops dtypes

let random_sample rng kind =
  match kind with
  | Pe_k ->
    let p =
      {
        Comp.caps = random_caps rng;
        width_bits = Rng.choose rng [ 16; 32; 64; 128; 256; 512 ];
        delay_fifo = Rng.choose rng [ 2; 4; 8; 16 ];
        const_regs = Rng.int rng 5;
        predication = Rng.bool rng;
      }
    in
    let fan_in = 1 + Rng.int rng 6 and fan_out = 1 + Rng.int rng 4 in
    (pe_features p ~fan_in ~fan_out, Comp.Pe p, fan_in, fan_out)
  | Switch_k ->
    let width_bits = Rng.choose rng [ 16; 32; 64; 128; 256; 512 ] in
    let fan_in = 1 + Rng.int rng 8 and fan_out = 1 + Rng.int rng 8 in
    (sw_features ~width_bits ~fan_in ~fan_out, Comp.Switch { width_bits }, fan_in, fan_out)
  | In_port_k | Out_port_k ->
    let p =
      {
        Comp.width_bytes = Rng.choose rng [ 2; 4; 8; 16; 32; 64 ];
        fifo_depth = Rng.choose rng [ 2; 4; 8 ];
        padding = Rng.bool rng;
        stated = Rng.bool rng;
      }
    in
    let comp = if kind = In_port_k then Comp.In_port p else Comp.Out_port p in
    (port_features p, comp, 1, 1)

let gen_dataset rng kind n =
  List.init n (fun _ ->
      let feats, comp, fan_in, fan_out = random_sample rng kind in
      let res = Oracle.ooc ~rng comp ~fan_in ~fan_out in
      (feats, res_to_targets res))

(* One kind's scaled dataset, split 80/10/10 as in the paper, with the RNG
   it was drawn from: the network's initial weights and the epoch shuffles
   continue the same stream. *)
type dataset = {
  rng : Rng.t;
  in_scaler : Mlp.Scaler.s;
  out_scaler : Mlp.Scaler.s;
  train_set : (float array * float array) list;
  test_set : (float array * float array) list;
  n_total : int;
}

let prepare ~seed kind n =
  let rng = Rng.create (seed + Hashtbl.hash (kind_name kind)) in
  let data = gen_dataset rng kind n in
  let in_scaler = Mlp.Scaler.fit (List.map fst data) in
  let out_scaler = Mlp.Scaler.fit (List.map snd data) in
  let scaled =
    List.map
      (fun (x, y) -> (Mlp.Scaler.apply in_scaler x, Mlp.Scaler.apply out_scaler y))
      data
  in
  let n_total = List.length scaled in
  let n_train = n_total * 8 / 10 and n_val = n_total / 10 in
  let idx = ref (-1) in
  let train_set, rest =
    List.partition (fun _ -> incr idx; !idx < n_train) scaled
  in
  idx := -1;
  let _val_set, test_set =
    List.partition (fun _ -> incr idx; !idx < n_val) rest
  in
  { rng; in_scaler; out_scaler; train_set; test_set; n_total }

let fit d =
  let n_in = Array.length (fst (List.hd d.train_set)) in
  let net = Mlp.create ~rng:d.rng ~layers:[ n_in; 32; 16; 4 ] in
  Mlp.train net ~rng:d.rng ~rate:0.002 ~epochs:200 d.train_set;
  (* test error: mean relative LUT error in unscaled space *)
  let rel_err =
    let errs =
      List.map
        (fun (x, y) ->
          let pred = targets_to_res (Mlp.Scaler.unapply d.out_scaler (Mlp.forward net x)) in
          let truth = targets_to_res (Mlp.Scaler.unapply d.out_scaler y) in
          Float.abs (float_of_int (pred.Res.lut - truth.Res.lut))
          /. Float.max 1.0 (float_of_int truth.Res.lut))
        d.test_set
    in
    Overgen_util.Stats.mean errs
  in
  {
    net;
    in_scaler = d.in_scaler;
    out_scaler = d.out_scaler;
    test_err = rel_err;
    n_samples = d.n_total;
  }

(* The four kinds share nothing and each draws from its own seeded RNG, so
   they train concurrently on two domains, one worker and the helping
   caller, with the bits of a sequential run.  The datasets are drawn here
   first: that is a small share of the time but most of the allocation.
   PE goes first: it is about half the work, and the other three fill the
   second domain meanwhile. *)
let train ~seed () =
  let datasets =
    List.map
      (fun k -> (k, prepare ~seed k (List.assoc k default_counts)))
      [ Pe_k; Switch_k; In_port_k; Out_port_k ]
  in
  (* each fit is a span under the caller's, whichever domain runs it *)
  let parent = Obs.Span.current_id () in
  let fit_job (k, d) =
    Obs.Span.with_parent parent (fun () ->
        Obs.Span.with_span "mlp_fit" ~attrs:[ ("kind", kind_name k) ] (fun () -> fit d))
  in
  let pool = Pool.create (Pool.Domains 1) in
  let models =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> Pool.map pool fit_job datasets)
  in
  match models with
  | [ pe_m; sw_m; ip_m; op_m ] -> { pe_m; sw_m; ip_m; op_m }
  | _ -> assert false

let run_model (m : model) feats =
  targets_to_res (Mlp.Scaler.unapply m.out_scaler (Mlp.forward m.net (Mlp.Scaler.apply m.in_scaler feats)))

let model_of t = function
  | Pe_k -> t.pe_m
  | Switch_k -> t.sw_m
  | In_port_k -> t.ip_m
  | Out_port_k -> t.op_m

let predict_comp t comp ~fan_in ~fan_out =
  match comp with
  | Comp.Pe p -> run_model t.pe_m (pe_features p ~fan_in ~fan_out)
  | Comp.Switch { width_bits } -> run_model t.sw_m (sw_features ~width_bits ~fan_in ~fan_out)
  | Comp.In_port p -> run_model t.ip_m (port_features p)
  | Comp.Out_port p -> run_model t.op_m (port_features p)
  | Comp.Engine e -> Oracle.engine e

(* Per node id, the component and degrees its prediction was made for
   (degrees 0 for ports and engines, whose predictions do not read them).
   A prediction depends on nothing else, and the ADG is persistent: a node
   a move did not touch keeps its [Comp.t] physically, so [==] and two int
   compares decide reuse.  [none]'s component is a fresh block no graph
   holds, so an empty slot never matches. *)
type slot = { comp : Comp.t; fan_in : int; fan_out : int; res : Res.t }

let none = { comp = Comp.Switch { width_bits = -1 }; fan_in = -1; fan_out = -1; res = Res.zero }

type memo = { mutable slots : slot array }

let memo () = { slots = [||] }

(* The total is summed in node order from the per-node values; each field
   is an int, so the sum equals a fresh prediction's in any order. *)
let predict_accel ?memo:m t adg =
  let m = match m with Some m -> m | None -> memo () in
  let n = Adg.max_id adg + 1 in
  if Array.length m.slots < n then begin
    let grown = Array.make (Int.max n (2 * Array.length m.slots)) none in
    Array.blit m.slots 0 grown 0 (Array.length m.slots);
    m.slots <- grown
  end;
  let slots = m.slots in
  let lut = ref 0 and ff = ref 0 and bram = ref 0 and dsp = ref 0 in
  let n_engines = ref 0 and n_ports = ref 0 in
  Adg.iter_with_succs adg
    ~node:(fun id c ->
      let fabric = Adg.is_fabric c in
      let fan_in = if fabric then Adg.in_degree adg id else 0
      and fan_out = if fabric then Adg.out_degree adg id else 0 in
      let s = slots.(id) in
      let r =
        if s.comp == c && s.fan_in = fan_in && s.fan_out = fan_out then s.res
        else begin
          let res = predict_comp t c ~fan_in ~fan_out in
          slots.(id) <- { comp = c; fan_in; fan_out; res };
          res
        end
      in
      lut := !lut + r.lut;
      ff := !ff + r.ff;
      bram := !bram + r.bram;
      dsp := !dsp + r.dsp;
      match c with
      | Comp.Engine _ -> incr n_engines
      | Comp.In_port _ | Comp.Out_port _ -> incr n_ports
      | Comp.Pe _ | Comp.Switch _ -> ())
    ~succ:ignore;
  Res.add
    { Res.lut = !lut; ff = !ff; bram = !bram; dsp = !dsp }
    (Oracle.dispatcher ~n_engines:!n_engines ~n_ports:!n_ports)

let predict_full t (s : Sys_adg.t) =
  let tile = predict_accel t s.adg in
  Res.add (Res.scale s.system.System.tiles tile) (Oracle.system_overhead s.system)

let test_error t kind = (model_of t kind).test_err
let samples_trained t kind = (model_of t kind).n_samples
