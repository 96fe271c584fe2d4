(* bench dse: the island-model DSE scaling scenario.

   Sweeps island counts over one workload suite at a fixed TOTAL iteration
   budget and reports, per count, the modeled DSE time (the paper-scale
   clock: a parallel run costs the slowest island, so n islands divide the
   modeled hours by ~n), the best objective, and whether the parallel run
   matched or beat the sequential explorer it anchors.

   Usage: main.exe dse [--islands N[,N...]] [--iterations N] [--seed N]
                       [--suite dsp|machsuite|vision]
   Island count 1 (the sequential baseline) is always included. *)

open Overgen_workload
module Dse = Overgen_dse.Dse

let parse_args args =
  let islands = ref [ 2; 4 ] in
  let iterations = ref 200 in
  let seed = ref Dse.default_config.seed in
  let suite = ref Suite.Dsp in
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  let int_of what v =
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ -> bad "dse: %s expects a positive integer, got %S" what v
  in
  let rec go = function
    | [] -> ()
    | "--islands" :: v :: rest ->
      islands := List.map (int_of "--islands") (String.split_on_char ',' v);
      go rest
    | "--iterations" :: v :: rest ->
      iterations := int_of "--iterations" v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of "--seed" v;
      go rest
    | "--suite" :: v :: rest ->
      (match List.find_opt (fun s -> Suite.to_string s = v) Suite.all with
      | Some s -> suite := s
      | None -> bad "dse: unknown suite %S" v);
      go rest
    | arg :: _ ->
      bad "dse: unknown argument %S (--islands --iterations --seed --suite)" arg
  in
  go args;
  let counts = List.sort_uniq compare (1 :: !islands) in
  (counts, !iterations, !seed, !suite)

let run args =
  let counts, iterations, seed, suite = parse_args args in
  Exp_common.header
    (Printf.sprintf
       "bench dse: island scaling on [%s], %d total iterations, seed %d"
       (Suite.to_string suite) iterations seed);
  let model = Exp_common.model () in
  let apps = Dse.compile_apps ~tuned:false (Kernels.of_suite suite) in
  let explore n =
    let config = { Dse.default_config with seed; iterations; islands = n } in
    Dse.explore ~config ~model apps
  in
  let base = explore 1 in
  Printf.printf "%8s %14s %12s %10s %10s  %s\n" "islands" "modeled (h)"
    "speedup" "objective" "parity" "wall (s)";
  let row n (r : Dse.result) =
    let speedup = base.modeled_hours /. r.modeled_hours in
    let parity = r.best.objective >= base.best.objective -. 1e-9 in
    Printf.printf "%8d %14.2f %11.2fx %10.1f %10s  %.2f\n" n r.modeled_hours
      speedup r.best.objective
      (if parity then "ok" else "worse")
      r.wall_seconds;
    (speedup, parity)
  in
  ignore (row 1 base);
  let results = List.map (fun n -> (n, row n (explore n)))
      (List.filter (fun n -> n > 1) counts)
  in
  List.iter
    (fun (n, (speedup, parity)) ->
      if speedup < float_of_int n /. 2.0 then
        Printf.printf
          "note: %d islands gave %.2fx modeled speedup (< %d/2)\n" n speedup n;
      if not parity then
        Printf.printf
          "note: %d islands ended below the sequential objective\n" n)
    results
