type t = Dsp | Machsuite | Vision

let all = [ Dsp; Machsuite; Vision ]

let to_string = function
  | Dsp -> "dsp"
  | Machsuite -> "machsuite"
  | Vision -> "vision"

let of_string = function
  | "dsp" -> Some Dsp
  | "machsuite" -> Some Machsuite
  | "vision" -> Some Vision
  | _ -> None
