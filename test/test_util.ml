open Overgen_util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let sub = Rng.split a in
  let x = Rng.int sub 1000000 in
  let y = Rng.int a 1000000 in
  Alcotest.(check bool) "streams differ" true (x <> y || Rng.int sub 10 >= 0)

let test_rng_streams_anchor () =
  (* stream 0 must be exactly [create seed]: the island-model DSE's
     single-island determinism contract rests on it *)
  let anchor = List.hd (Rng.streams 42 4) in
  let direct = Rng.create 42 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "stream 0 is create seed" (Rng.int direct 1_000_000)
      (Rng.int anchor 1_000_000)
  done

let test_rng_streams_nonoverlapping () =
  (* 10k draws from each of 4 streams over a ~2^62 space: any repeated
     value would mean overlapping substreams *)
  let streams = Rng.streams 9 4 in
  let seen = Hashtbl.create 80_000 in
  List.iter
    (fun s ->
      for _ = 1 to 10_000 do
        let v = Rng.int s max_int in
        Alcotest.(check bool) "draw not seen in any stream" false
          (Hashtbl.mem seen v);
        Hashtbl.add seen v ()
      done)
    streams;
  Alcotest.(check int) "40k distinct draws" 40_000 (Hashtbl.length seen)

let test_rng_streams_deterministic () =
  let a = Rng.streams 5 3 and b = Rng.streams 5 3 in
  List.iter2
    (fun x y ->
      for _ = 1 to 50 do
        Alcotest.(check int) "same stream list" (Rng.int x 1000) (Rng.int y 1000)
      done)
    a b;
  Alcotest.check_raises "n < 1 rejected"
    (Invalid_argument "Rng.streams: n < 1") (fun () -> ignore (Rng.streams 1 0))

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let f = Rng.float r 3.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 3.5)
  done

let test_rng_of_string_stable () =
  let a = Rng.of_string "experiment-1" and b = Rng.of_string "experiment-1" in
  Alcotest.(check int) "string seeding stable" (Rng.int a 9999) (Rng.int b 9999)

let test_rng_choose_weighted () =
  let r = Rng.create 3 in
  let count = ref 0 in
  for _ = 1 to 1000 do
    if Rng.choose_weighted r [ (9.0, `A); (1.0, `B) ] = `A then incr count
  done;
  Alcotest.(check bool) "heavy side dominates" true (!count > 800)

let test_rng_gaussian () =
  let r = Rng.create 5 in
  let n = 5000 in
  let samples = List.init n (fun _ -> Rng.gaussian r ~mean:10.0 ~stddev:2.0) in
  let m = Stats.mean samples in
  Alcotest.(check bool) "mean near 10" true (Float.abs (m -. 10.0) < 0.2);
  let sd = sqrt (Stats.mean (List.map (fun x -> (x -. m) *. (x -. m)) samples)) in
  Alcotest.(check bool) "stddev near 2" true (Float.abs (sd -. 2.0) < 0.2)

let test_rng_shuffle_permutation () =
  let r = Rng.create 11 in
  let l = List.init 50 Fun.id in
  let s = Rng.shuffle r l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

(* [shuffle] and [shuffle_in_place] keep the original Fisher-Yates draws,
   [int t (i + 1)] for i from the top down: the MLP's training order, and
   so its trained weights, depend on it. *)
let test_rng_shuffle_reference_draws () =
  let reference t l =
    let arr = Array.of_list l in
    for i = Array.length arr - 1 downto 1 do
      let j = Rng.int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list arr
  in
  List.iter
    (fun n ->
      let l = List.init n Fun.id in
      let a = Rng.create n and b = Rng.create n and c = Rng.create n in
      let expected = reference a l in
      Alcotest.(check (list int)) "shuffle" expected (Rng.shuffle b l);
      let arr = Array.of_list l in
      Rng.shuffle_in_place c arr;
      Alcotest.(check (list int)) "shuffle_in_place" expected (Array.to_list arr);
      let next = Rng.int a 1_000_000 in
      Alcotest.(check int) "shuffle leaves the same state" next (Rng.int b 1_000_000);
      Alcotest.(check int) "in place leaves the same state" next (Rng.int c 1_000_000))
    [ 0; 1; 2; 7; 50; 800 ]

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "singleton" 5.0 (Stats.geomean [ 5.0 ]);
  check_float "empty" 0.0 (Stats.geomean [])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_median () =
  check_float "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_div_ceil () =
  Alcotest.(check int) "7/2" 4 (Stats.div_ceil 7 2);
  Alcotest.(check int) "8/2" 4 (Stats.div_ceil 8 2)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let s =
    Render.table ~headers:[ "a"; "b" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ]
  in
  Alcotest.(check bool) "contains header cell" true (contains s "| a");
  Alcotest.(check bool) "pads short rows" true (contains s "| 333 |")

let test_bar_chart_runs () =
  let s =
    Render.bar_chart ~title:"t"
      [ ("w1", [ 0.5; 2.0 ]); ("w2", [ 1.0; 4.0 ]) ]
      ~series:[ "x"; "y" ]
  in
  Alcotest.(check bool) "non-empty" true (String.length s > 10)

let test_line_chart_runs () =
  let s =
    Render.line_chart ~title:"conv" ~xlabel:"h" ~ylabel:"ipc"
      [ ("a", [ (0.0, 1.0); (1.0, 2.0) ]); ("b", [ (0.5, 1.5) ]) ]
  in
  Alcotest.(check bool) "non-empty" true (String.length s > 10)

(* Property tests. *)
let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int always in bounds" ~count:500
    QCheck.(pair int (int_range 1 10000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_geomean_between_min_max =
  QCheck.Test.make ~name:"geomean between min and max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.001 1000.0))
    (fun l ->
      let g = Stats.geomean l in
      let lo = List.fold_left Float.min infinity l in
      let hi = List.fold_left Float.max neg_infinity l in
      g >= lo *. 0.999 && g <= hi *. 1.001)

let prop_shuffle_preserves =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair int (small_list int))
    (fun (seed, l) ->
      let r = Rng.create seed in
      List.sort compare (Rng.shuffle r l) = List.sort compare l)

let test_percentile () =
  let l = [ 15.0; 20.0; 35.0; 40.0; 50.0 ] in
  check_float "p0 is the min" 15.0 (Stats.percentile ~p:0.0 l);
  check_float "p100 is the max" 50.0 (Stats.percentile ~p:100.0 l);
  check_float "p50 matches median" (Stats.median l) (Stats.percentile ~p:50.0 l);
  (* linear interpolation between closest ranks: p30 of 5 points sits
     1.2 ranks in, 20% of the way from 20 to 35 *)
  check_float "p30 interpolates" 23.0 (Stats.percentile ~p:30.0 l);
  check_float "empty list" 0.0 (Stats.percentile ~p:90.0 []);
  check_float "singleton" 7.0 (Stats.percentile ~p:99.0 [ 7.0 ]);
  check_float "unsorted input" 23.0 (Stats.percentile ~p:30.0 [ 50.0; 20.0; 35.0; 15.0; 40.0 ]);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile ~p:101.0 l))

let test_percentiles () =
  let l = [ 15.0; 20.0; 35.0; 40.0; 50.0 ] in
  let a = Array.of_list [ 50.0; 20.0; 35.0; 15.0; 40.0 ] in
  let ps = [ 0.0; 30.0; 50.0; 100.0 ] in
  (* the single-sort batch agrees with repeated percentile calls *)
  List.iter2
    (fun p got -> check_float (Printf.sprintf "p%.0f" p) (Stats.percentile ~p l) got)
    ps
    (Stats.percentiles a ps);
  Alcotest.(check (list (float 1e-9)))
    "empty data gives all zeros" [ 0.0; 0.0; 0.0 ]
    (Stats.percentiles [||] [ 50.0; 90.0; 99.0 ]);
  Alcotest.(check (list (float 1e-9))) "empty ps" [] (Stats.percentiles a []);
  Alcotest.(check (float 1e-9))
    "input not mutated"
    50.0 a.(0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentiles: p outside [0, 100]") (fun () ->
      ignore (Stats.percentiles a [ 50.0; -1.0 ]))

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile lies within [min, max]" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 30) (float_range (-500.0) 1000.0))
        (float_range 0.0 100.0))
    (fun (l, p) ->
      let v = Stats.percentile ~p l in
      let lo = List.fold_left min infinity l
      and hi = List.fold_left max neg_infinity l in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* Table cells: integers bare, then fewer decimals the larger the value. *)
let test_float_cell () =
  Alcotest.(check (list string)) "cells" [ "42"; "123.5"; "4.57"; "0.123" ]
    (List.map Render.float_cell [ 42.0; 123.45; 4.567; 0.1234 ])

(* [Append] writes what [string_of_int] and [Printf.sprintf "%h"] write:
   on random 64-bit patterns (every sign, exponent and fraction, so
   subnormals, infinities and NaNs too) and on the edge values by name. *)
let appended f x =
  let b = Buffer.create 32 in
  f b x;
  Buffer.contents b

let hex_float = appended Append.hex_float

let test_hex_float_edges () =
  List.iter
    (fun x -> Alcotest.(check string) (Printf.sprintf "%h" x) (Printf.sprintf "%h" x) (hex_float x))
    [ 0.0; -0.0; 1.0; -1.0; 0.1; 3.0; 1e300; Float.min_float; -.Float.min_float;
      Float.max_float; -.Float.max_float; Float.epsilon;
      Int64.float_of_bits 1L; Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL;
      Int64.float_of_bits 0x8000_0000_0000_0001L; Float.infinity;
      Float.neg_infinity; Float.nan; -.Float.nan;
      Int64.float_of_bits 0x7FF0_0000_0000_0001L; Int64.float_of_bits (-1L) ]

let test_append_int_edges () =
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (appended Append.int n))
    [ 0; 1; 9; 10; -1; -9; -10; 1022; -1022; 1 lsl 52; max_int; min_int ]

let prop_append_int =
  QCheck.Test.make ~name:"Append.int = string_of_int" ~count:1000 QCheck.int
    (fun n -> String.equal (appended Append.int n) (string_of_int n))

let prop_hex_float_printf =
  QCheck.Test.make ~name:"Append.hex_float = Printf %h on random bit patterns"
    ~count:2000 QCheck.int64
    (fun bits ->
      let x = Int64.float_of_bits bits in
      String.equal (hex_float x) (Printf.sprintf "%h" x))

let tests =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng streams anchor" `Quick test_rng_streams_anchor;
    Alcotest.test_case "rng streams non-overlapping" `Slow
      test_rng_streams_nonoverlapping;
    Alcotest.test_case "rng streams deterministic" `Quick
      test_rng_streams_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng of_string" `Quick test_rng_of_string_stable;
    Alcotest.test_case "rng weighted choice" `Quick test_rng_choose_weighted;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng shuffle reference draws" `Quick
      test_rng_shuffle_reference_draws;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "geomean rejects <=0" `Quick test_geomean_rejects_nonpositive;
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentiles batch" `Quick test_percentiles;
    Alcotest.test_case "div_ceil" `Quick test_div_ceil;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "bar chart" `Quick test_bar_chart_runs;
    Alcotest.test_case "line chart" `Quick test_line_chart_runs;
    QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_geomean_between_min_max;
    QCheck_alcotest.to_alcotest prop_shuffle_preserves;
    QCheck_alcotest.to_alcotest prop_percentile_bounded;
    Alcotest.test_case "float cell" `Quick test_float_cell;
    Alcotest.test_case "hex float edges" `Quick test_hex_float_edges;
    QCheck_alcotest.to_alcotest prop_hex_float_printf;
    Alcotest.test_case "append int edges" `Quick test_append_int_edges;
    QCheck_alcotest.to_alcotest prop_append_int;
  ]
