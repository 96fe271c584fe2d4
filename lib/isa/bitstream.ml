type field = { value : int64; bits : int }

type t = { rev_fields : field list; total_bits : int }

let empty = { rev_fields = []; total_bits = 0 }

let add t f =
  if f.bits < 1 || f.bits > 64 then invalid_arg "Bitstream.add: bits in 1..64";
  { rev_fields = f :: t.rev_fields; total_bits = t.total_bits + f.bits }

let fields t = List.rev t.rev_fields
let bit_count t = t.total_bits

let magic = 0x4F564732L (* "OVG2" *)

(* Pack fields LSB-first into 64-bit words. *)
let pack t =
  let n_words = (t.total_bits + 63) / 64 in
  let words = Array.make (max 1 n_words) 0L in
  let pos = ref 0 in
  List.iter
    (fun f ->
      (* write f.bits bits of f.value starting at bit !pos *)
      let remaining = ref f.bits in
      let v = ref f.value in
      while !remaining > 0 do
        let word = !pos / 64 and off = !pos mod 64 in
        let take = min !remaining (64 - off) in
        let mask =
          if take = 64 then -1L else Int64.sub (Int64.shift_left 1L take) 1L
        in
        let chunk = Int64.logand !v mask in
        words.(word) <- Int64.logor words.(word) (Int64.shift_left chunk off);
        v := Int64.shift_right_logical !v take;
        pos := !pos + take;
        remaining := !remaining - take
      done)
    (fields t);
  words

let checksum words =
  Array.fold_left (fun acc w -> Int64.add (Int64.mul acc 31L) w) 0x5EEDL words

let words t =
  let payload = pack t in
  let header =
    Int64.logor (Int64.shift_left magic 32)
      (Int64.of_int (List.length (fields t)))
  in
  let body = Array.append [| header |] payload in
  Array.append body [| checksum body |]

let verify image =
  let n = Array.length image in
  n >= 2
  && Int64.shift_right_logical image.(0) 32 = magic
  && image.(n - 1) = checksum (Array.sub image 0 (n - 1))
