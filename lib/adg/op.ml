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
  | Abs | Sqrt -> 1
  | Acc -> 1
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
  include Set.Make (struct
    type nonrec t = t * Dtype.t

    let compare = Stdlib.compare
  end)

  let of_ops ops dtypes =
    List.concat_map (fun op -> List.map (fun dt -> (op, dt)) dtypes) ops
    |> of_list

  let supports caps op dt = mem (op, dt) caps

  let to_string caps =
    elements caps
    |> List.map (fun (op, dt) -> to_string op ^ "." ^ Dtype.to_string dt)
    |> String.concat ","
end
