let sign n = if n < 0 then "negative" else if n = 0 then "zero" else "positive"

let parse s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> invalid_arg "Coverfix.parse"
