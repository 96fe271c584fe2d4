(* The digits of [n <= 0], most significant first: counting in the
   negatives reaches [min_int] too. *)
let rec neg_digits b n =
  if n <= -10 then neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    neg_digits b n
  end
  else neg_digits b (-n)

(* What [Printf]'s "%h" writes (the runtime's hexstring_of_float with no
   precision): sign, then "0x", the leading bit (1 for a normal, 0 for
   zero and subnormals), the 52-bit fraction in nibbles with trailing
   zero nibbles dropped (and the '.' with them when none is left), then
   the binary exponent with its sign, subnormals at p-1022 and zero at
   p+0. *)

let hex_digits = "0123456789abcdef"

let hex_float b x =
  let bits = Int64.bits_of_float x in
  if Int64.compare bits 0L < 0 then Buffer.add_char b '-';
  (* bits 0-62 fit a native int: the exponent and the fraction *)
  let low = Int64.to_int bits in
  let biased = (low lsr 52) land 0x7FF and frac = low land ((1 lsl 52) - 1) in
  if biased = 0x7FF then Buffer.add_string b (if frac = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string b (if biased = 0 then "0x0" else "0x1");
    if frac <> 0 then begin
      Buffer.add_char b '.';
      let rest = ref frac and shift = ref 48 in
      while !rest <> 0 do
        Buffer.add_char b (String.unsafe_get hex_digits ((!rest lsr !shift) land 0xF));
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    let exp = if biased <> 0 then biased - 1023 else if frac <> 0 then -1022 else 0 in
    Buffer.add_char b 'p';
    if exp >= 0 then Buffer.add_char b '+';
    int b exp
  end
