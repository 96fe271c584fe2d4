(* The fault-injection harness itself: plans must be pure functions of
   (seed, point, visit index), bounded by the configured rate, and fully
   inert while disarmed. *)

module Fault = Overgen_fault.Fault

let visit pt =
  match Fault.point pt with
  | () -> None
  | exception (Fault.Injected { kind; _ }) -> Some kind

(* Replay [n] visits of one point and record which indices injected. *)
let pattern cfg pt n =
  Fault.with_faults cfg (fun () ->
      List.init n (fun _ -> visit pt))

let test_determinism () =
  let cfg = { Fault.default_config with seed = 5; rate = 0.3 } in
  let a = pattern cfg "p" 200 in
  let b = pattern cfg "p" 200 in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  let c = pattern { cfg with seed = 6 } "p" 200 in
  Alcotest.(check bool) "different seed, different plan" false (a = c)

let test_rate_bounds () =
  let inj cfg =
    List.length (List.filter Option.is_some (pattern cfg "p" 400))
  in
  Alcotest.(check int) "rate 0 injects nothing" 0
    (inj { Fault.default_config with rate = 0.0 });
  Alcotest.(check int) "rate 1 injects always" 400
    (inj { Fault.default_config with rate = 1.0 });
  let n = inj { Fault.default_config with seed = 11; rate = 0.3 } in
  Alcotest.(check bool)
    (Printf.sprintf "rate 0.3 injects roughly 120/400 (got %d)" n)
    true
    (n > 60 && n < 180)

let test_kinds () =
  let kinds cfg =
    List.filter_map Fun.id (pattern cfg "p" 100)
  in
  Alcotest.(check bool) "fraction 1 is all transient" true
    (List.for_all
       (( = ) Fault.Transient)
       (kinds { Fault.default_config with rate = 1.0; transient_fraction = 1.0 }));
  Alcotest.(check bool) "fraction 0 is all deterministic" true
    (List.for_all
       (( = ) Fault.Deterministic)
       (kinds { Fault.default_config with rate = 1.0; transient_fraction = 0.0 }));
  Alcotest.(check bool) "is_transient discriminates" true
    (Fault.is_transient (Fault.Injected { point = "p"; kind = Transient })
    && (not
          (Fault.is_transient
             (Fault.Injected { point = "p"; kind = Deterministic })))
    && not (Fault.is_transient Exit))

let test_points_filter () =
  let cfg =
    { Fault.default_config with rate = 1.0; points = [ "only.this" ] }
  in
  Fault.with_faults cfg (fun () ->
      Alcotest.(check bool) "listed point injects" true
        (visit "only.this" <> None);
      Alcotest.(check bool) "unlisted point is untouched" true
        (visit "other" = None));
  (* Unlisted points are not even counted. *)
  Fault.with_faults cfg (fun () -> ignore (visit "other"));
  Alcotest.(check bool) "unlisted point leaves no stats" true
    (List.for_all (fun (p, _, _) -> p <> "other") (Fault.stats ()))

let test_disarmed () =
  Alcotest.(check bool) "starts disarmed" false (Fault.armed ());
  List.iter Fault.point Fault.Points.all;
  Alcotest.(check int) "disarmed visits cost nothing" 0
    (List.fold_left (fun acc (_, _, i) -> acc + i) 0 (Fault.stats ()))

let test_stats () =
  let cfg = { Fault.default_config with seed = 3; rate = 0.5 } in
  Fault.with_faults cfg (fun () ->
      for _ = 1 to 50 do
        ignore (visit "a")
      done;
      for _ = 1 to 20 do
        ignore (visit "b")
      done);
  Alcotest.(check bool) "armed state restored" false (Fault.armed ());
  (match Fault.stats () with
  | [ ("a", 50, ia); ("b", 20, ib) ] ->
    Alcotest.(check bool) "injected within visits" true
      (ia >= 0 && ia <= 50 && ib >= 0 && ib <= 20);
  | l ->
    Alcotest.failf "unexpected stats shape (%d points)" (List.length l));
  Fault.reset_stats ();
  Alcotest.(check bool) "reset clears stats" true (Fault.stats () = [])

let test_arm_validation () =
  Alcotest.check_raises "rate > 1 rejected"
    (Invalid_argument "Fault.arm: rate outside [0, 1]") (fun () ->
      Fault.arm { Fault.default_config with rate = 1.5 });
  Alcotest.check_raises "negative fraction rejected"
    (Invalid_argument "Fault.arm: transient_fraction outside [0, 1]")
    (fun () ->
      Fault.arm { Fault.default_config with transient_fraction = -0.1 });
  Alcotest.(check bool) "invalid arm leaves disarmed" false (Fault.armed ())

let tests =
  [
    Alcotest.test_case "plan determinism" `Quick test_determinism;
    Alcotest.test_case "rate bounds" `Quick test_rate_bounds;
    Alcotest.test_case "fault kinds" `Quick test_kinds;
    Alcotest.test_case "points filter" `Quick test_points_filter;
    Alcotest.test_case "disarmed no-op" `Quick test_disarmed;
    Alcotest.test_case "stats bookkeeping" `Quick test_stats;
    Alcotest.test_case "arm validation" `Quick test_arm_validation;
  ]
