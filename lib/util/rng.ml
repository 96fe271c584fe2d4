type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: the standard mix of Steele, Lea and Flood.
   Inlined so callers keep the state unboxed. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let create seed = { state = mix64 (Int64.of_int seed) }

let of_string s =
  (* FNV-1a over the bytes, then feed into SplitMix seeding. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  { state = mix64 !h }

let split t =
  let s = next_int64 t in
  { state = mix64 s }

let state t = t.state
let of_state state = { state }

let streams seed n =
  if n < 1 then invalid_arg "Rng.streams: n < 1";
  (* Stream 0 is exactly [create seed] (the sequential stream); the others
     are split off a private master so stream 0's own draws are untouched.
     Explicit recursion: splits must happen in index order 1..n-1. *)
  let master = create seed in
  let rec rest i =
    if i >= n then []
    else
      let s = split master in
      s :: rest (i + 1)
  in
  create seed :: rest 1

(* Keep 62 bits so the value fits OCaml's 63-bit native int positively. *)
let[@inline] bounded z bound = Int64.to_int (Int64.shift_right_logical z 2) mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bounded (next_int64 t) bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-12 then draw ()
    else
      let u2 = float t 1.0 in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  mean +. (stddev *. draw ())

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | l -> List.nth l (int t (List.length l))

let choose_weighted t weighted =
  let total = List.fold_left (fun acc (w, _) -> acc +. Float.max 0.0 w) 0.0 weighted in
  if weighted = [] || total <= 0.0 then
    invalid_arg "Rng.choose_weighted: empty or zero-weight list";
  let target = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.choose_weighted: unreachable"
    | [ (_, x) ] -> x
    | (w, x) :: rest ->
      let acc = acc +. Float.max 0.0 w in
      if target < acc then x else pick acc rest
  in
  pick 0.0 weighted

(* Fisher-Yates drawing [int t (i + 1)] for i from the top down, with the
   state held in a local so the loop allocates nothing. *)
let shuffle_in_place t arr =
  let s = ref t.state in
  for i = Array.length arr - 1 downto 1 do
    s := Int64.add !s golden_gamma;
    let j = bounded (mix64 !s) (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  t.state <- !s

let shuffle t l =
  let arr = Array.of_list l in
  shuffle_in_place t arr;
  Array.to_list arr
