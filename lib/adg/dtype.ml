type t = I8 | I16 | I32 | I64 | F32 | F64

let bits = function
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 64
  | F32 -> 32
  | F64 -> 64

let bytes t = bits t / 8

let is_float = function
  | F32 | F64 -> true
  | I8 | I16 | I32 | I64 -> false

let to_string = function
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"

let of_string = function
  | "i8" -> Some I8
  | "i16" -> Some I16
  | "i32" -> Some I32
  | "i64" -> Some I64
  | "f32" -> Some F32
  | "f64" -> Some F64
  | _ -> None

let all = [ I8; I16; I32; I64; F32; F64 ]

let fu_latency t ~arith =
  match (arith, t) with
  | `Simple, (I8 | I16 | I32 | I64) -> 1
  | `Simple, F32 -> 3
  | `Simple, F64 -> 4
  | `Mul, (I8 | I16) -> 1
  | `Mul, (I32 | I64) -> 2
  | `Mul, F32 -> 3
  | `Mul, F64 -> 4
  | `Div, (I8 | I16 | I32) -> 8
  | `Div, I64 -> 12
  | `Div, F32 -> 10
  | `Div, F64 -> 14
  | `Sqrt, (I8 | I16 | I32 | I64 | F32) -> 12
  | `Sqrt, F64 -> 16
