(* Reflected CRC-32 with the IEEE polynomial 0xEDB88320, sliced by 8.

   [tables] holds eight 256-entry tables of native ints back to back:
   table 0 is the classic byte-at-a-time table, and table k maps a byte to
   its contribution to the CRC once k more zero bytes have followed it.
   One step then folds eight bytes with eight independent lookups (two
   little-endian 32-bit reads, the first xored with the running CRC)
   instead of eight dependent ones; the 0-7 bytes after the last whole
   step go through the byte loop.  Built eagerly at module load, so no
   domain ever races to force it. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* The unsigned little-endian 32-bit word at [i]. *)
let[@inline] get32_le s i = Int32.to_int (String.get_int32_le s i) land 0xFFFF_FFFF

let[@inline] look k i = Array.unsafe_get tables ((k lsl 8) lor (i land 0xFF))

let sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.sub: range out of bounds";
  let stop = off + len in
  let crc = ref 0xFFFF_FFFF and i = ref off in
  while !i + 8 <= stop do
    let one = get32_le s !i lxor !crc and two = get32_le s (!i + 4) in
    crc :=
      look 7 one
      lxor look 6 (one lsr 8)
      lxor look 5 (one lsr 16)
      lxor look 4 (one lsr 24)
      lxor look 3 two
      lxor look 2 (two lsr 8)
      lxor look 1 (two lsr 16)
      lxor look 0 (two lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc := look 0 (!crc lxor Char.code (String.unsafe_get s !i)) lxor (!crc lsr 8);
    incr i
  done;
  !crc lxor 0xFFFF_FFFF

let string ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc32.string: range out of bounds";
  Int32.of_int (sub s off len)
