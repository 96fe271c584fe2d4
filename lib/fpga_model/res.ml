type t = { lut : int; ff : int; bram : int; dsp : int }

let zero = { lut = 0; ff = 0; bram = 0; dsp = 0 }

let add a b =
  { lut = a.lut + b.lut; ff = a.ff + b.ff; bram = a.bram + b.bram; dsp = a.dsp + b.dsp }

let sum = List.fold_left add zero

let scale k a =
  { lut = k * a.lut; ff = k * a.ff; bram = k * a.bram; dsp = k * a.dsp }

let scale_f k a =
  let s x = int_of_float (Float.round (k *. float_of_int x)) in
  { lut = s a.lut; ff = s a.ff; bram = s a.bram; dsp = s a.dsp }

let fits a ~within =
  a.lut <= within.lut && a.ff <= within.ff && a.bram <= within.bram
  && a.dsp <= within.dsp

let fits_sum a b ~within =
  a.lut + b.lut <= within.lut && a.ff + b.ff <= within.ff
  && a.bram + b.bram <= within.bram && a.dsp + b.dsp <= within.dsp

let utilization a ~device =
  let f x d = if d = 0 then 0.0 else float_of_int x /. float_of_int d in
  (f a.lut device.lut, f a.ff device.ff, f a.bram device.bram, f a.dsp device.dsp)

let describe_utilization a ~device =
  let l, f, b, d = utilization a ~device in
  Printf.sprintf "LUT %.1f%% FF %.1f%% BRAM %.1f%% DSP %.1f%%" (100. *. l)
    (100. *. f) (100. *. b) (100. *. d)
