module Rng = Overgen_util.Rng

type layer = {
  weights : float array array; (* [out][in] *)
  bias : float array;
  w_vel : float array array;
  b_vel : float array;
}

type t = { layers : layer array; sizes : int list }

let create ~rng ~layers:sizes =
  if List.length sizes < 2 then invalid_arg "Mlp.create: need >= 2 layers";
  let pairs =
    List.combine
      (List.filteri (fun i _ -> i < List.length sizes - 1) sizes)
      (List.tl sizes)
  in
  let layers =
    List.map
      (fun (n_in, n_out) ->
        let scale = sqrt (2.0 /. float_of_int n_in) in
        {
          weights =
            Array.init n_out (fun _ ->
                Array.init n_in (fun _ -> Rng.gaussian rng ~mean:0.0 ~stddev:scale));
          bias = Array.make n_out 0.0;
          w_vel = Array.init n_out (fun _ -> Array.make n_in 0.0);
          b_vel = Array.make n_out 0.0;
        })
      pairs
  in
  { layers = Array.of_list layers; sizes }

let n_inputs t = List.hd t.sizes
let n_outputs t = List.nth t.sizes (List.length t.sizes - 1)

let relu x = if x > 0.0 then x else 0.0

let check_width fn what ~expected a =
  if Array.length a <> expected then
    invalid_arg
      (Printf.sprintf "%s: %s has width %d, expected %d" fn what (Array.length a)
         expected)

(* The hot loops below index floats without bounds checks: [create] sizes
   every row, the scratch buffers are sized from the layers, and [forward]
   and [train] check every input and target width on entry. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

(* One layer's forward pass into [out]: bias plus the weighted inputs summed
   in input order, ReLU'd unless [last].  Plain loops over unboxed floats,
   so nothing is allocated. *)
let layer_forward l ~last inp out =
  for j = 0 to Array.length l.weights - 1 do
    let row = l.weights.(j) in
    let s = ref l.bias.!(j) in
    for k = 0 to Array.length row - 1 do
      s := !s +. (row.!(k) *. inp.!(k))
    done;
    out.!(j) <- (if last then !s else relu !s)
  done

let forward t x =
  check_width "Mlp.forward" "input" ~expected:(n_inputs t) x;
  let n = Array.length t.layers in
  let inp = ref x in
  for i = 0 to n - 1 do
    let l = t.layers.(i) in
    let out = Array.make (Array.length l.bias) 0.0 in
    layer_forward l ~last:(i = n - 1) !inp out;
    inp := out
  done;
  !inp

(* Scratch space for one [train] call: [acts.(i)] is the input of layer
   [i] for [i >= 1] (the sample's own input stands in for layer 0), and
   [acts.(n)] the network's output; [deltas.(i)] is dL/d(output of layer
   [i]). *)
type scratch = { acts : float array array; deltas : float array array }

let scratch t =
  let outs = Array.map (fun l -> Array.length l.bias) t.layers in
  {
    acts =
      Array.init
        (Array.length t.layers + 1)
        (fun i -> Array.make (if i = 0 then 0 else outs.(i - 1)) 0.0);
    deltas = Array.map (fun n -> Array.make n 0.0) outs;
  }

(* One SGD step on sample [(x, y)].  Every float operation happens in the
   order of the textbook pass (forward; output delta; per layer from the
   top: propagate the delta through the old weights, mask it with the ReLU
   derivative, then update), so the weights come out bit for bit the same.
   Propagation is fused into the update loop: each weight is read before
   it is written, and [prev.(k)] still accumulates over [j] in order. *)
let step t s ~rate ~momentum x y =
  let n = Array.length t.layers in
  for i = 0 to n - 1 do
    layer_forward t.layers.(i) ~last:(i = n - 1)
      (if i = 0 then x else s.acts.(i))
      s.acts.(i + 1)
  done;
  (* dL/dout for MSE (factor 2 folded into the rate) *)
  let out = s.acts.(n) and d_out = s.deltas.(n - 1) in
  for j = 0 to Array.length out - 1 do
    d_out.!(j) <- out.!(j) -. y.!(j)
  done;
  for i = n - 1 downto 0 do
    let l = t.layers.(i) in
    let inp = if i = 0 then x else s.acts.(i) in
    let d = s.deltas.(i) in
    (* the input layer's delta is never used, so it is not computed *)
    let propagate = i > 0 in
    let prev = if propagate then s.deltas.(i - 1) else d in
    if propagate then Array.fill prev 0 (Array.length prev) 0.0;
    for j = 0 to Array.length l.weights - 1 do
      let row = l.weights.(j) and vel = l.w_vel.(j) in
      let dj = d.!(j) in
      for k = 0 to Array.length row - 1 do
        let w = row.!(k) in
        if propagate then prev.!(k) <- prev.!(k) +. (w *. dj);
        let g = dj *. inp.!(k) in
        vel.!(k) <- (momentum *. vel.!(k)) -. (rate *. g);
        row.!(k) <- w +. vel.!(k)
      done;
      l.b_vel.!(j) <- (momentum *. l.b_vel.!(j)) -. (rate *. dj);
      l.bias.!(j) <- l.bias.!(j) +. l.b_vel.!(j)
    done;
    (* ReLU derivative on the layer's input *)
    if propagate then
      for k = 0 to Array.length inp - 1 do
        if inp.!(k) <= 0.0 then prev.!(k) <- 0.0
      done
  done

let momentum = 0.9

let train t ~rng ~rate ~epochs samples =
  let samples = Array.of_list samples in
  Array.iter
    (fun (x, y) ->
      check_width "Mlp.train" "sample input" ~expected:(n_inputs t) x;
      check_width "Mlp.train" "sample target" ~expected:(n_outputs t) y)
    samples;
  let s = scratch t in
  let n = Array.length samples in
  let order = Array.make n 0 in
  for _ = 1 to epochs do
    (* each epoch permutes the original order, as [Rng.shuffle] would *)
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    Rng.shuffle_in_place rng order;
    for i = 0 to n - 1 do
      let x, y = samples.(order.(i)) in
      step t s ~rate ~momentum x y
    done
  done

let loss t samples =
  match samples with
  | [] -> 0.0
  | _ ->
    let total =
      List.fold_left
        (fun acc (x, y) ->
          let o = forward t x in
          let e = ref 0.0 in
          Array.iteri (fun i v -> e := !e +. ((v -. y.(i)) ** 2.0)) o;
          acc +. !e)
        0.0 samples
    in
    total /. float_of_int (List.length samples)

module Scaler = struct
  type s = { mins : float array; maxs : float array }

  let fit rows =
    match rows with
    | [] -> invalid_arg "Scaler.fit: empty"
    | first :: _ ->
      let n = Array.length first in
      List.iter
        (fun row ->
          if Array.length row <> n then
            invalid_arg
              (Printf.sprintf "Scaler.fit: ragged rows (width %d, expected %d)"
                 (Array.length row) n))
        rows;
      let mins = Array.make n infinity and maxs = Array.make n neg_infinity in
      List.iter
        (fun row ->
          Array.iteri
            (fun i v ->
              if v < mins.(i) then mins.(i) <- v;
              if v > maxs.(i) then maxs.(i) <- v)
            row)
        rows;
      { mins; maxs }

  let span s i =
    let d = s.maxs.(i) -. s.mins.(i) in
    if d <= 1e-12 then 1.0 else d

  let apply s row =
    Array.mapi (fun i v -> (v -. s.mins.(i)) /. span s i) row

  let unapply s row =
    Array.mapi (fun i v -> (v *. span s i) +. s.mins.(i)) row
end
