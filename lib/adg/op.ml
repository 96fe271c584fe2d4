type t =
  | Add
  | Sub
  | Mul
  | Div
  | Sqrt
  | Min
  | Max
  | Abs
  | Shl
  | Shr
  | Band
  | Bor
  | Bxor
  | Cmp_lt
  | Cmp_eq
  | Select
  | Acc

let all =
  [ Add; Sub; Mul; Div; Sqrt; Min; Max; Abs; Shl; Shr; Band; Bor; Bxor;
    Cmp_lt; Cmp_eq; Select; Acc ]

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Sqrt -> "sqrt"
  | Min -> "min"
  | Max -> "max"
  | Abs -> "abs"
  | Shl -> "shl"
  | Shr -> "shr"
  | Band -> "and"
  | Bor -> "or"
  | Bxor -> "xor"
  | Cmp_lt -> "cmplt"
  | Cmp_eq -> "cmpeq"
  | Select -> "select"
  | Acc -> "acc"

let of_string s = List.find_opt (fun op -> to_string op = s) all
let compare = Stdlib.compare

let arity = function
  | Abs | Sqrt | Acc -> 1
  | Select -> 3
  | Add | Sub | Mul | Div | Min | Max | Shl | Shr | Band | Bor | Bxor
  | Cmp_lt | Cmp_eq -> 2

let arith_class = function
  | Mul -> `Mul
  | Div -> `Div
  | Sqrt -> `Sqrt
  | Add | Sub | Min | Max | Abs | Shl | Shr | Band | Bor | Bxor | Cmp_lt
  | Cmp_eq | Select | Acc -> `Simple

let latency op dt = Dtype.fu_latency dt ~arith:(arith_class op)
let is_mul op = op = Mul
let is_add op = op = Add || op = Sub || op = Acc
let is_div op = op = Div

module Cap = struct
  (* A bitset over the dense keys: keys 0-61 in [lo], 62-101 in [hi], so
     neither word uses the sign bit. *)
  type nonrec t = { lo : int; hi : int }

  let word = 62

  let op_index = function
    | Add -> 0
    | Sub -> 1
    | Mul -> 2
    | Div -> 3
    | Sqrt -> 4
    | Min -> 5
    | Max -> 6
    | Abs -> 7
    | Shl -> 8
    | Shr -> 9
    | Band -> 10
    | Bor -> 11
    | Bxor -> 12
    | Cmp_lt -> 13
    | Cmp_eq -> 14
    | Select -> 15
    | Acc -> 16

  let dtype_index : Dtype.t -> int = function
    | I8 -> 0
    | I16 -> 1
    | I32 -> 2
    | I64 -> 3
    | F32 -> 4
    | F64 -> 5

  let n_dtypes = 6
  let n_keys = 17 * n_dtypes
  let key op dt = (op_index op * n_dtypes) + dtype_index dt

  (* the pair of each key *)
  let pairs =
    Array.of_list (List.concat_map (fun op -> List.map (fun dt -> (op, dt)) Dtype.all) all)

  let () =
    assert (Array.length pairs = n_keys);
    Array.iteri (fun k (op, dt) -> assert (key op dt = k)) pairs

  let empty = { lo = 0; hi = 0 }

  let supports c op dt =
    let k = key op dt in
    if k < word then (c.lo lsr k) land 1 = 1 else (c.hi lsr (k - word)) land 1 = 1

  let add (op, dt) c =
    let k = key op dt in
    if k < word then { c with lo = c.lo lor (1 lsl k) }
    else { c with hi = c.hi lor (1 lsl (k - word)) }

  let remove (op, dt) c =
    let k = key op dt in
    if k < word then { c with lo = c.lo land lnot (1 lsl k) }
    else { c with hi = c.hi land lnot (1 lsl (k - word)) }

  let of_list l = List.fold_left (fun c p -> add p c) empty l

  let of_ops ops dtypes =
    List.fold_left
      (fun c op -> List.fold_left (fun c dt -> add (op, dt) c) c dtypes)
      empty ops

  let inter a b = { lo = a.lo land b.lo; hi = a.hi land b.hi }
  let is_empty c = c.lo = 0 && c.hi = 0

  let rec popcount n w = if w = 0 then n else popcount (n + 1) (w land (w - 1))
  let cardinal c = popcount 0 c.lo + popcount 0 c.hi

  (* 2 is a primitive root mod 67, so [(1 lsl i) mod 67] differs for every
     bit [i] of a word; the table maps the residue back to [i]. *)
  let bit_of_residue =
    let t = Array.make 67 (-1) in
    for i = 0 to word - 1 do
      assert (t.((1 lsl i) mod 67) = -1);
      t.((1 lsl i) mod 67) <- i
    done;
    t

  (* The walks visit only the set bits of a word, lowest first ([w land -w]
     isolates the lowest); [base] is the key of bit 0. *)
  let rec fold_word f base w acc =
    if w = 0 then acc
    else
      let b = w land -w in
      fold_word f base (w lxor b) (f pairs.(base + bit_of_residue.(b mod 67)) acc)

  let fold f c acc = fold_word f word c.hi (fold_word f 0 c.lo acc)
  let iter f c = fold (fun p () -> f p) c ()
  let elements c = List.rev (fold List.cons c [])

  let rec exists_word f base w =
    w <> 0
    &&
    let b = w land -w in
    f pairs.(base + bit_of_residue.(b mod 67)) || exists_word f base (w lxor b)

  let exists f c = exists_word f 0 c.lo || exists_word f word c.hi

  let to_string caps =
    elements caps
    |> List.map (fun (op, dt) -> to_string op ^ "." ^ Dtype.to_string dt)
    |> String.concat ","

  let opcode c op dt =
    if not (supports c op dt) then invalid_arg "Op.Cap.opcode: pair not in the set";
    let k = key op dt in
    if k < word then popcount 0 (c.lo land ((1 lsl k) - 1))
    else popcount (popcount 0 c.lo) (c.hi land ((1 lsl (k - word)) - 1))

  let opcode_bits c =
    let n = max 2 (cardinal c) in
    let rec width b = if 1 lsl b >= n then b else width (b + 1) in
    width 1
end
