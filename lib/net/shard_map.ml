(* FNV-1a, 64-bit *)
let hash s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let vnodes = 64

type t = {
  (* ring points sorted by unsigned hash value *)
  points : int64 array;
  owners : int array;
}

let make ~shards =
  if shards < 1 then invalid_arg "Shard_map.make: shards < 1";
  let keyed =
    Array.init (shards * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (hash (Printf.sprintf "fnv1a-64:shard-%d:vnode-%d" shard v), shard))
  in
  (* ties broken by shard index so the ring is identical everywhere even
     if the hash collides *)
  Array.sort
    (fun (a, sa) (b, sb) ->
      match Int64.unsigned_compare a b with 0 -> compare sa sb | c -> c)
    keyed;
  { points = Array.map fst keyed; owners = Array.map snd keyed }

(* first ring point at or after [h] (unsigned order), wrapping to 0 *)
let owner t key =
  let h = hash key in
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare t.points.(mid) h < 0 then lo := mid + 1
    else hi := mid
  done;
  t.owners.(if !lo = n then 0 else !lo)
