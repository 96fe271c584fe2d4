(* The generic domain worker pool: inline and queued submission, ordered
   maps and failure propagation — in both execution modes. *)

module Pool = Overgen_par.Pool

(* A deterministic submit runs the job on the caller's thread before
   returning, in submission order. *)
let test_deterministic_submit_inline () =
  let p = Pool.create Pool.Deterministic in
  let order = ref [] in
  List.iter
    (fun i ->
      match Pool.submit p (fun () -> order := i :: !order) with
      | Ok () ->
        Alcotest.(check int) "ran before submit returned" i (List.hd !order)
      | Error Pool.Stopped -> Alcotest.fail "submit rejected before shutdown")
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "submission order" [ 1; 2; 3; 4; 5 ] (List.rev !order);
  Pool.shutdown p

let test_stopped_after_shutdown () =
  List.iter
    (fun mode ->
      let p = Pool.create mode in
      Pool.shutdown p;
      Pool.shutdown p;
      (* idempotent *)
      let ran = ref false in
      (match Pool.submit p (fun () -> ran := true) with
      | Error Pool.Stopped -> ()
      | Ok () -> Alcotest.fail "expected Stopped after shutdown");
      Alcotest.(check bool) "rejected job never ran" false !ran)
    [ Pool.Deterministic; Pool.Domains 2 ]

let test_map_orders = function
  | mode ->
    let p = Pool.create mode in
    let input = List.init 100 (fun i -> i) in
    let out = Pool.map p (fun i -> i * i) input in
    Alcotest.(check (list int)) "map preserves input order"
      (List.map (fun i -> i * i) input)
      out;
    Pool.shutdown p

exception Boom

(* A submitted job that raises is kept, not lost: the pool stays usable,
   and shutdown re-raises the exception once. *)
let test_exception_propagates () =
  List.iter
    (fun mode ->
      let p = Pool.create mode in
      (match Pool.submit p (fun () -> raise Boom) with
      | Ok () -> ()
      | Error Pool.Stopped -> Alcotest.fail "submit rejected");
      (* the pool survives a failed job *)
      let out = Pool.map p (fun i -> i + 1) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "pool usable after failure" [ 2; 3; 4 ] out;
      (try
         Pool.shutdown p;
         Alcotest.fail "shutdown should re-raise the job's exception"
       with Boom -> ());
      Pool.shutdown p)
    [ Pool.Deterministic; Pool.Domains 2 ]

exception BoomN of int

(* Several jobs fail in one batch: map_result must attribute each failure
   to its own slot, map must raise the first error in *input* order (even
   when a later element fails first in time), and neither may leave a
   failure for shutdown to re-raise. *)
let test_multi_failure_results () =
  let work i = if i = 1 || i = 4 || i = 6 then raise (BoomN i) else 10 * i in
  let late_first i =
    if i = 1 then Unix.sleepf 0.05;
    work i
  in
  List.iter
    (fun mode ->
      let p = Pool.create mode in
      let out = Pool.map_result p work [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
      let show = function
        | Ok v -> string_of_int v
        | Error (BoomN i) -> Printf.sprintf "boom%d" i
        | Error e -> Printexc.to_string e
      in
      Alcotest.(check (list string))
        "per-slot results"
        [ "0"; "boom1"; "20"; "30"; "boom4"; "50"; "boom6"; "70" ]
        (List.map show out);
      (* map raises the first failure in input order, both modes. *)
      (match Pool.map p work [ 0; 1; 2; 3; 4; 5; 6; 7 ] with
      | _ -> Alcotest.fail "map should raise"
      | exception BoomN 1 -> ()
      | exception e ->
        Alcotest.failf "map raised %s, wanted BoomN 1" (Printexc.to_string e));
      (match Pool.map p late_first [ 0; 1; 2; 3; 4; 5; 6; 7 ] with
      | _ -> Alcotest.fail "map should raise"
      | exception BoomN 1 -> ()
      | exception e ->
        Alcotest.failf "delayed first failure: map raised %s, wanted BoomN 1"
          (Printexc.to_string e));
      (* map failures never reach the pool's escaped slot *)
      Pool.shutdown p)
    [ Pool.Deterministic; Pool.Domains 4 ]

let test_domains_match_deterministic () =
  let work i = (i * 37) mod 101 in
  let input = List.init 500 (fun i -> i) in
  let run mode =
    let p = Pool.create mode in
    let out = Pool.map p work input in
    Pool.shutdown p;
    out
  in
  Alcotest.(check (list int)) "Domains 3 = Deterministic"
    (run Pool.Deterministic)
    (run (Pool.Domains 3))

(* Only the first escaped exception is kept; later ones are dropped. *)
let test_shutdown_reraises_first () =
  let p = Pool.create Pool.Deterministic in
  List.iter (fun i -> ignore (Pool.submit p (fun () -> raise (BoomN i)))) [ 1; 2; 3 ];
  match Pool.shutdown p with
  | () -> Alcotest.fail "shutdown should re-raise"
  | exception BoomN 1 -> ()
  | exception e ->
    Alcotest.failf "shutdown raised %s, wanted BoomN 1" (Printexc.to_string e)

let test_create_validation () =
  Alcotest.check_raises "Domains 0 rejected"
    (Invalid_argument "Pool.create: Domains n with n < 1") (fun () ->
      ignore (Pool.create (Pool.Domains 0)));
  let p = Pool.create (Pool.Domains 3) in
  Pool.shutdown p;
  Alcotest.check_raises "map after shutdown rejected"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map p succ [ 1 ]))

(* Run [f] on its own domain and fail instead of hanging if it has not
   returned within [seconds]. *)
let with_watchdog ?(seconds = 20.0) what f =
  let result = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e))) in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  match Atomic.get result with
  | None -> Alcotest.failf "%s: no result after %.0f s (deadlock?)" what seconds
  | Some r -> (
    Domain.join d;
    match r with Ok v -> v | Error e -> raise e)

(* A map issued from inside a job: the single worker is busy with the outer
   job, so the inner map completes only because its caller helps. *)
let test_nested_map () =
  let p = Pool.create (Pool.Domains 1) in
  let out =
    with_watchdog "nested map on Domains 1" (fun () ->
        Pool.map p
          (fun i -> List.fold_left ( + ) 0 (Pool.map p (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ])
  in
  Alcotest.(check (list int)) "nested sums" [ 36; 66; 96; 126 ] out;
  Pool.shutdown p

(* Two domains map on one pool at once; helping runs each other's jobs,
   but each caller gets exactly its own results, in order. *)
let test_concurrent_maps () =
  let p = Pool.create (Pool.Domains 1) in
  let run k () = Pool.map p (fun i -> (k * 1000) + i) (List.init 200 Fun.id) in
  let other = Domain.spawn (run 2) in
  let mine = run 1 () in
  let theirs = Domain.join other in
  Alcotest.(check (list int)) "first caller" (List.init 200 (fun i -> 1000 + i)) mine;
  Alcotest.(check (list int)) "second caller" (List.init 200 (fun i -> 2000 + i)) theirs;
  Pool.shutdown p

let tests =
  [
    Alcotest.test_case "deterministic submit inline" `Quick
      test_deterministic_submit_inline;
    Alcotest.test_case "stopped after shutdown" `Quick test_stopped_after_shutdown;
    Alcotest.test_case "map order (deterministic)" `Quick (fun () ->
        test_map_orders Pool.Deterministic);
    Alcotest.test_case "map order (domains)" `Quick (fun () ->
        test_map_orders (Pool.Domains 4));
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "multi-failure results" `Quick test_multi_failure_results;
    Alcotest.test_case "domains match deterministic" `Quick
      test_domains_match_deterministic;
    Alcotest.test_case "shutdown re-raises first" `Quick
      test_shutdown_reraises_first;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "nested map (caller helps)" `Quick test_nested_map;
    Alcotest.test_case "concurrent maps on one pool" `Quick test_concurrent_maps;
  ]
