let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let geomean = function
  | [] -> 0.0
  | l ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
          acc +. log x)
        0.0 l
    in
    exp (log_sum /. float_of_int (List.length l))

let median = function
  | [] -> 0.0
  | l ->
    let sorted = List.sort compare l in
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

(* linear interpolation between closest ranks of a sorted array *)
let interpolate sorted p =
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (lo + 1) (n - 1) in
  let frac = rank -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let percentiles data ps =
  List.iter
    (fun p ->
      if p < 0.0 || p > 100.0 then
        invalid_arg "Stats.percentiles: p outside [0, 100]")
    ps;
  if Array.length data = 0 then List.map (fun _ -> 0.0) ps
  else begin
    let sorted = Array.copy data in
    Array.sort compare sorted;
    List.map (interpolate sorted) ps
  end

let percentile ~p = function
  | [] -> 0.0
  | l ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
    let sorted = Array.of_list l in
    Array.sort compare sorted;
    interpolate sorted p

let clamp ~lo ~hi x = Float.max lo (Float.min hi x)
let clamp_int ~lo ~hi x = max lo (min hi x)

let div_ceil a b = (a + b - 1) / b
