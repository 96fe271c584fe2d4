(* The observability subsystem: registry exactness under domain
   parallelism, span nesting invariants, exporter well-formedness, and the
   null backend's zero-cost contract. *)

module Obs = Overgen_obs.Obs
module Metrics = Overgen_obs.Metrics
module Span = Overgen_obs.Span
module Export = Overgen_obs.Export
module Log = Overgen_obs.Log
module Rng = Overgen_util.Rng

(* Every test leaves the global gate off and the span buffers empty, so
   tests cannot contaminate each other (alcotest runs them in order). *)
let with_recording f =
  Obs.enable ();
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Span.reset ())
    f

(* --- registry --- *)

let test_counter_concurrent () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter reg "hammered_total" in
  let domains = 4 and per_domain = 50_000 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int)
    "no lost increments" (domains * per_domain) (Metrics.counter_value c)

let test_histogram_concurrent () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram reg "obs_seconds" ~buckets:[| 0.5; 1.5 |] in
  let domains = 4 and per_domain = 20_000 in
  let workers =
    List.init domains (fun i ->
        Domain.spawn (fun () ->
            (* even domains observe 1.0 (second bucket), odd 2.0 (+inf) *)
            let v = if i mod 2 = 0 then 1.0 else 2.0 in
            for _ = 1 to per_domain do
              Metrics.observe h v
            done))
  in
  List.iter Domain.join workers;
  let s = Metrics.histogram_snapshot h in
  let n = domains * per_domain in
  Alcotest.(check int) "count exact" n s.h_count;
  Alcotest.(check (float 1e-3))
    "sum exact" (float_of_int (n / 2) *. 3.0) s.h_sum;
  Alcotest.(check int) "buckets incl +inf" 3 (Array.length s.h_buckets);
  Alcotest.(check int) "nothing under 0.5" 0 (snd s.h_buckets.(0));
  Alcotest.(check int) "half at <= 1.5" (n / 2) (snd s.h_buckets.(1));
  Alcotest.(check int) "+inf cumulative = count" n (snd s.h_buckets.(2));
  Alcotest.(check bool)
    "last bound is infinity" true
    (fst s.h_buckets.(2) = infinity)

(* [observe]'s binary search lands each value in the bucket a linear
   scan picks: the first bound >= v, else +inf (NaN included). *)
let test_histogram_bucket_choice () =
  let bounds = [| 1.0; 2.0; 4.0; 8.0; 16.0 |] in
  let values =
    [ -1.0; 0.0; 1.0; 1.5; 2.0; 3.999; 4.0; 4.001; 8.0; 15.0; 16.0; 16.5;
      infinity; nan ]
  in
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram reg "obs_buckets" ~buckets:bounds in
  let n = Array.length bounds in
  List.iter
    (fun v ->
      let before = Metrics.histogram_snapshot h in
      Metrics.observe h v;
      let after = Metrics.histogram_snapshot h in
      let linear =
        let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
        go 0
      in
      let got =
        let rec go i =
          if snd after.h_buckets.(i) > snd before.h_buckets.(i) then i
          else go (i + 1)
        in
        go 0
      in
      Alcotest.(check int) (Printf.sprintf "bucket of %g" v) linear got)
    values

let test_get_or_create () =
  let reg = Metrics.create_registry () in
  let a = Metrics.counter reg "same_total" ~labels:[ ("k", "v") ] in
  let b = Metrics.counter reg "same_total" ~labels:[ ("k", "v") ] in
  Metrics.incr a;
  Metrics.incr b ~by:2;
  Alcotest.(check int) "one underlying metric" 3 (Metrics.counter_value a);
  let other = Metrics.counter reg "same_total" ~labels:[ ("k", "w") ] in
  Alcotest.(check int) "different labels are distinct" 0
    (Metrics.counter_value other);
  Alcotest.(check bool) "kind mismatch rejected" true
    (match Metrics.gauge reg "same_total" ~labels:[ ("k", "v") ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gauge () =
  let reg = Metrics.create_registry () in
  let g = Metrics.gauge reg "level" in
  Alcotest.(check (float 0.0)) "initial" 0.0 (Metrics.gauge_value g);
  Metrics.set g 42.5;
  Metrics.set g 17.25;
  Alcotest.(check (float 0.0)) "last write wins" 17.25 (Metrics.gauge_value g)

let contains ~needle hay =
  let n = String.length needle and l = String.length hay in
  let rec scan i = i + n <= l && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let test_prometheus_render () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter reg "reqs_total" ~help:"requests" ~labels:[ ("user", "a\"b") ] in
  Metrics.incr c ~by:7;
  let h = Metrics.histogram reg "lat_seconds" ~buckets:[| 0.1 |] in
  Metrics.observe h 0.05;
  Metrics.observe h 0.5;
  let dump = Metrics.render_prometheus reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle dump))
    [
      "# HELP reqs_total requests";
      "# TYPE reqs_total counter";
      "reqs_total{user=\"a\\\"b\"} 7";
      "# TYPE lat_seconds histogram";
      "lat_seconds_bucket{le=\"0.1\"} 1";
      "lat_seconds_bucket{le=\"+Inf\"} 2";
      "lat_seconds_count 2";
    ];
  (* reset zeroes values but keeps registrations *)
  Metrics.reset reg;
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c)

(* --- spans --- *)

let test_span_nesting () =
  with_recording @@ fun () ->
  let inner_id = ref 0 in
  Span.with_span "root" ~attrs:[ ("k", "v") ] (fun () ->
      Span.with_span "child_a" (fun () -> inner_id := Span.current_id ());
      Span.add_attr "late" "yes";
      Span.with_span "child_b" (fun () -> ()));
  Span.with_span "sibling_root" (fun () -> ());
  let spans = Span.spans () in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  let find name = List.find (fun (s : Span.span) -> s.name = name) spans in
  let root = find "root" and a = find "child_a" and b = find "child_b" in
  let sib = find "sibling_root" in
  Alcotest.(check int) "root has no parent" 0 root.parent;
  Alcotest.(check int) "sibling root has no parent" 0 sib.parent;
  Alcotest.(check int) "a nested under root" root.id a.parent;
  Alcotest.(check int) "b nested under root" root.id b.parent;
  Alcotest.(check int) "current_id saw child_a" a.id !inner_id;
  Alcotest.(check (list (pair string string)))
    "attrs keep order, late attr appended"
    [ ("k", "v"); ("late", "yes") ]
    root.attrs;
  Alcotest.(check bool) "children within root" true
    (a.start_s >= root.start_s
    && b.start_s +. b.dur_s <= root.start_s +. root.dur_s +. 1e-6);
  (* merged order is by start time *)
  let names = List.map (fun (s : Span.span) -> s.name) spans in
  Alcotest.(check (list string))
    "sorted by start" [ "root"; "child_a"; "child_b"; "sibling_root" ] names

let test_span_recorded_on_raise () =
  with_recording @@ fun () ->
  (try Span.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Span.count ());
  Alcotest.(check int) "no span left open" 0 (Span.current_id ())

let test_span_multi_domain () =
  with_recording @@ fun () ->
  Span.with_span "main_root" (fun () ->
      let d =
        Domain.spawn (fun () ->
            Span.with_span "worker_root" (fun () ->
                Span.with_span "worker_child" (fun () -> ())))
      in
      Domain.join d);
  let spans = Span.spans () in
  Alcotest.(check int) "three spans merged" 3 (List.length spans);
  let find name = List.find (fun (s : Span.span) -> s.name = name) spans in
  (* parenting never crosses domains *)
  Alcotest.(check int) "worker root is a root" 0 (find "worker_root").parent;
  Alcotest.(check int)
    "worker child parented in its domain"
    (find "worker_root").id (find "worker_child").parent;
  Alcotest.(check bool) "distinct domains" true
    ((find "main_root").domain <> (find "worker_root").domain)

(* A job run on another domain under the submitter's span id nests there,
   and the running domain's own stack is back afterwards. *)
let test_span_with_parent () =
  with_recording (fun () ->
      Span.with_span "submitter" (fun () ->
          let parent = Span.current_id () in
          let d =
            Domain.spawn (fun () ->
                Span.with_span "busy" (fun () ->
                    let busy = Span.current_id () in
                    let seen =
                      Span.with_parent parent (fun () ->
                          Span.with_span "job" (fun () -> ());
                          Span.current_id ())
                    in
                    Span.with_parent 0 (fun () -> Span.with_span "own" (fun () -> ()));
                    (seen, busy, Span.current_id ())))
          in
          let seen, busy, after = Domain.join d in
          Alcotest.(check int) "current_id inside is the parent" parent seen;
          Alcotest.(check int) "own stack restored" busy after);
      let find name = List.find (fun (s : Span.span) -> s.name = name) (Span.spans ()) in
      Alcotest.(check int) "job under the submitter" (find "submitter").id (find "job").parent;
      Alcotest.(check int) "parent 0 leaves the stack alone" (find "busy").id
        (find "own").parent);
  Alcotest.(check int) "recording off: just the thunk" 0
    (Span.with_parent 7 Span.current_id)

(* --- exporters --- *)

let test_chrome_export () =
  with_recording @@ fun () ->
  Span.with_span "outer" ~attrs:[ ("path", "a\\b\"c\nd") ] (fun () ->
      Span.with_span "inner" (fun () -> ()));
  let spans = Span.spans () in
  let json = Export.to_chrome spans in
  (match Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome export not valid JSON: %s" e);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle json))
    [ "\"traceEvents\""; "\"ph\":\"X\""; "\"name\":\"outer\""; "a\\\\b\\\"c\\nd" ];
  (* JSONL: every line is itself one valid JSON value *)
  let jsonl = Export.to_jsonl spans in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per span" (List.length spans) (List.length lines);
  List.iter
    (fun line ->
      match Export.validate_json line with
      | Ok () -> ()
      | Error e -> Alcotest.failf "jsonl line invalid: %s (%s)" e line)
    lines

let test_validate_json_rejects () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (Result.is_error (Export.validate_json bad)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "[1] trailing"; "\"unterminated"; "nul" ];
  List.iter
    (fun good ->
      Alcotest.(check bool) ("accepts " ^ good) true
        (Result.is_ok (Export.validate_json good)))
    [ "{}"; "[]"; "null"; "-1.5e3"; "[1e+5,2E-3]";
      "{\"a\":[1,{\"b\":\"\\u00e9\"}]}" ]

(* --- trace context --- *)

let test_trace_context () =
  (* with_trace works with the gate off — correlation must not depend on
     span recording being enabled *)
  Obs.disable ();
  Alcotest.(check string) "no ambient trace" "" (Span.current_trace ());
  let seen = ref [] in
  Span.with_trace "aaaa" (fun () ->
      seen := Span.current_trace () :: !seen;
      Span.with_trace "bbbb" (fun () -> seen := Span.current_trace () :: !seen);
      (* inner scope restored the outer context *)
      seen := Span.current_trace () :: !seen);
  Alcotest.(check (list string))
    "nesting restores the outer context" [ "aaaa"; "bbbb"; "aaaa" ]
    (List.rev !seen);
  Alcotest.(check string) "context cleared at exit" "" (Span.current_trace ());
  (* restored even when the thunk raises *)
  (try Span.with_trace "cccc" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check string) "restored on raise" "" (Span.current_trace ());
  (* empty id is transparent *)
  Span.with_trace "dddd" (fun () ->
      Span.with_trace "" (fun () ->
          Alcotest.(check string) "with_trace \"\" keeps the context" "dddd"
            (Span.current_trace ())));
  (* spans recorded inside the scope carry the trace id *)
  with_recording (fun () ->
      Span.with_trace "eeee" (fun () -> Span.with_span "in" (fun () -> ()));
      Span.with_span "out" (fun () -> ());
      let find name = List.find (fun (s : Span.span) -> s.name = name) (Span.spans ()) in
      Alcotest.(check string) "span inherits trace" "eeee" (find "in").trace;
      Alcotest.(check string) "span outside has none" "" (find "out").trace)

(* Threads sharing a domain each hold a detached span open across a
   blocking call: every span keeps its own trace, and neither the
   domain's trace context nor its open-span stack sees them. *)
let test_detached_span_threads () =
  with_recording (fun () ->
      let ids = Array.make 4 0 in
      let worker i () =
        Span.with_detached_span ~trace:(Printf.sprintf "%04d" i) "send"
          ~attrs:[ ("i", string_of_int i) ]
          (fun id ->
            ids.(i) <- id;
            Thread.delay 0.01)
      in
      Span.with_trace "ambient" (fun () ->
          Span.with_span "outer" (fun () ->
              let outer = Span.current_id () in
              List.iter Thread.join (List.init 4 (fun i -> Thread.create (worker i) ()));
              Alcotest.(check string) "context untouched" "ambient"
                (Span.current_trace ());
              Alcotest.(check int) "stack untouched" outer (Span.current_id ())));
      let sends = List.filter (fun (s : Span.span) -> s.name = "send") (Span.spans ()) in
      Alcotest.(check int) "every span recorded" 4 (List.length sends);
      List.iter
        (fun (s : Span.span) ->
          let i = int_of_string (List.assoc "i" s.attrs) in
          Alcotest.(check string) "own trace" (Printf.sprintf "%04d" i) s.trace;
          Alcotest.(check int) "id passed to the thunk" ids.(i) s.id;
          Alcotest.(check int) "root span" 0 s.parent)
        sends);
  Alcotest.(check int) "id 0 when recording is off" 0
    (Span.with_detached_span ~trace:"ffff" "off" Fun.id)

let test_fresh_trace_deterministic () =
  let draw () =
    let rng = Rng.of_string "trace-id-stream" in
    List.init 5 (fun _ -> Span.fresh_trace rng)
  in
  let a = draw () and b = draw () in
  Alcotest.(check (list string)) "same stream, same ids" a b;
  List.iter
    (fun id ->
      Alcotest.(check int) "32 hex chars" 32 (String.length id);
      String.iter
        (fun c ->
          if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
            Alcotest.failf "non-hex char %c in trace id %s" c id)
        id)
    a;
  Alcotest.(check bool) "successive draws differ" true
    (List.length (List.sort_uniq compare a) = List.length a)

(* --- flight recorder --- *)

let test_log_ring_and_pins () =
  let t = Log.create ~capacity:8 () in
  Alcotest.(check int) "fresh recorder empty" 0 (Log.count t);
  (* a pinned milestone, then a flood that evicts the whole ring *)
  Log.record ~pin:true ~attrs:[ ("shard", "1") ] t "store_replay";
  for i = 1 to 100 do
    Log.record ~level:Log.Debug t (Printf.sprintf "bulk-%d" i)
  done;
  Alcotest.(check int) "count survives eviction" 101 (Log.count t);
  let events = Log.recent t in
  (* ring of 8 plus the pinned event the flood overwrote *)
  Alcotest.(check int) "ring + pin" 9 (List.length events);
  let first = List.hd events in
  Alcotest.(check string) "pinned event survived the flood" "store_replay"
    first.Log.name;
  Alcotest.(check int) "pinned event keeps its seq" 0 first.Log.seq;
  Alcotest.(check (list (pair string string)))
    "attrs preserved" [ ("shard", "1") ] first.Log.attrs;
  (* oldest-first total order by seq, no duplicates *)
  let seqs = List.map (fun (e : Log.event) -> e.Log.seq) events in
  Alcotest.(check (list int)) "sorted, deduplicated" (List.sort_uniq compare seqs) seqs;
  (* max keeps the newest *)
  (match Log.recent ~max:2 t with
  | [ a; b ] ->
    Alcotest.(check string) "newest kept" "bulk-100" b.Log.name;
    Alcotest.(check string) "second newest" "bulk-99" a.Log.name
  | l -> Alcotest.failf "recent ~max:2 returned %d events" (List.length l));
  (* events recorded inside a trace scope carry it *)
  Span.with_trace "ffff" (fun () -> Log.record t "traced");
  (match List.rev (Log.recent t) with
  | e :: _ -> Alcotest.(check string) "event inherits trace" "ffff" e.Log.trace
  | [] -> Alcotest.fail "no events");
  (* every event line is valid JSON, and so is the dump's each line *)
  List.iter
    (fun e ->
      match Export.validate_json (Log.event_json e) with
      | Ok () -> ()
      | Error err -> Alcotest.failf "event_json invalid: %s" err)
    (Log.recent t);
  Log.clear t;
  Alcotest.(check int) "clear empties" 0 (List.length (Log.recent t));
  Alcotest.(check int) "clear resets count" 0 (Log.count t)

let test_log_concurrent () =
  let t = Log.create ~capacity:256 () in
  let domains = 4 and per_domain = 5_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Log.record t (Printf.sprintf "d%d-%d" d i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost events" (domains * per_domain) (Log.count t);
  let events = Log.recent t in
  Alcotest.(check int) "ring full" 256 (List.length events);
  let seqs = List.map (fun (e : Log.event) -> e.Log.seq) events in
  Alcotest.(check (list int)) "seqs unique and ordered"
    (List.sort_uniq compare seqs) seqs

(* --- JSONL parse-back --- *)

let test_jsonl_roundtrip_and_orphans () =
  with_recording @@ fun () ->
  Span.with_trace "00ff00ff00ff00ff00ff00ff00ff00ff" (fun () ->
      Span.with_span "outer"
        ~attrs:[ ("k", "v\"w"); ("ctl", "tab\tnew\nline\001") ]
        (fun () ->
          Span.with_span "inner" (fun () -> ())));
  let spans = Span.spans () in
  let parsed =
    match Export.parse_jsonl (Export.to_jsonl ~pid:7 spans) with
    | Ok l -> l
    | Error e -> Alcotest.failf "parse_jsonl: %s" e
  in
  Alcotest.(check int) "all lines back" (List.length spans) (List.length parsed);
  List.iter2
    (fun (orig : Span.span) ((pid, back) : int * Span.span) ->
      Alcotest.(check int) "pid carried" 7 pid;
      Alcotest.(check int) "id" orig.id back.id;
      Alcotest.(check int) "parent" orig.parent back.parent;
      Alcotest.(check string) "trace" orig.trace back.trace;
      Alcotest.(check string) "name" orig.name back.name;
      Alcotest.(check (list (pair string string))) "attrs" orig.attrs back.attrs)
    spans parsed;
  Alcotest.(check (list (pair int int)))
    "well-formed lanes have no orphans" [] (Export.orphans parsed);
  (* a span whose parent was never recorded (a lost process, a SIGKILL)
     is reported per pid; the same ids under another pid are unrelated *)
  let inner = List.find (fun (s : Span.span) -> s.name = "inner") spans in
  let cut = List.filter (fun ((_, s) : int * Span.span) -> s.id = inner.id) parsed in
  Alcotest.(check (list (pair int int)))
    "missing parent detected" [ (7, inner.parent) ] (Export.orphans cut);
  let other_lane = List.map (fun ((_, s) : int * Span.span) -> (8, s)) parsed in
  Alcotest.(check (list (pair int int)))
    "ids are per-process: another pid's copy cannot adopt the orphan"
    [ (7, inner.parent) ]
    (Export.orphans (cut @ other_lane))

(* --- the null backend --- *)

let test_null_backend () =
  Obs.disable ();
  Span.reset ();
  let reg = Metrics.create_registry () in
  let c = Metrics.counter reg "gated_total" in
  let v = Span.with_span "ignored" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span transparent" 42 v;
  Alcotest.(check int) "nothing recorded" 0 (Span.count ());
  Obs.incr c;
  Alcotest.(check int) "gated incr dropped" 0 (Metrics.counter_value c);
  (* zero allocation: a long gated loop must not grow the minor heap *)
  let n = 200_000 in
  let minor0 = Gc.minor_words () in
  for _ = 1 to n do
    Obs.incr c;
    ignore (Span.with_span "noop" Fun.id)
  done;
  let per_op = (Gc.minor_words () -. minor0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free when disabled (%.4f words/op)" per_op)
    true (per_op < 0.01)

(* The human-readable report prints every kind, labels, and an empty
   registry; [Obs.observe] records only while telemetry is on. *)
let test_render_report () =
  let reg = Metrics.create_registry ~label:"shard" () in
  Alcotest.(check bool) "empty registry" true
    (contains ~needle:"(no metrics registered)" (Metrics.render_report reg));
  Metrics.incr (Metrics.counter ~labels:[ ("k", "v") ] reg "c_total");
  Metrics.set (Metrics.gauge reg "g") 2.5;
  ignore (Metrics.histogram reg "empty_s");
  let h = Metrics.histogram reg "h_s" in
  Obs.disable ();
  Obs.observe h 1.0;
  Obs.enable ();
  Obs.observe h 3.0;
  Obs.disable ();
  let text = Metrics.render_report reg and plain = Metrics.render_report ~label:"" reg in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains ~needle:sub text))
    [ "[shard]"; "c_total{k=\"v\"}"; "2.5000"; "mean   3.000000"; "mean   0.000000" ];
  Alcotest.(check bool) "no label" false (contains ~needle:"[" plain)

(* The service report prints the hit rate, faults and quota sheds only
   when there are any, and throughput only over a positive wall time. *)
let test_telemetry_report () =
  let module Telemetry = Overgen_service.Telemetry in
  let t = Telemetry.create () in
  let quiet = Telemetry.report ~wall_s:0.0 (Telemetry.snapshot t) in
  Telemetry.record t Telemetry.Hit ~service_s:0.001;
  Telemetry.record_fault t;
  Telemetry.record_quota t;
  let busy = Telemetry.report ~label:"a" ~wall_s:1.0 (Telemetry.snapshot t) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " only when busy") true
        (contains ~needle:sub busy && not (contains ~needle:sub quiet)))
    [ "[a]"; "hit rate"; "faults"; "quota shed"; "throughput" ]

let tests =
  [
    Alcotest.test_case "counter concurrency" `Quick test_counter_concurrent;
    Alcotest.test_case "histogram concurrency" `Quick test_histogram_concurrent;
    Alcotest.test_case "histogram bucket choice" `Quick
      test_histogram_bucket_choice;
    Alcotest.test_case "get-or-create" `Quick test_get_or_create;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "prometheus render" `Quick test_prometheus_render;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span survives raise" `Quick test_span_recorded_on_raise;
    Alcotest.test_case "span multi-domain merge" `Quick test_span_multi_domain;
    Alcotest.test_case "span under an explicit parent" `Quick test_span_with_parent;
    Alcotest.test_case "chrome + jsonl export" `Quick test_chrome_export;
    Alcotest.test_case "json validator" `Quick test_validate_json_rejects;
    Alcotest.test_case "trace context" `Quick test_trace_context;
    Alcotest.test_case "detached spans across threads" `Quick
      test_detached_span_threads;
    Alcotest.test_case "fresh_trace deterministic" `Quick
      test_fresh_trace_deterministic;
    Alcotest.test_case "flight recorder ring + pins" `Quick
      test_log_ring_and_pins;
    Alcotest.test_case "flight recorder concurrency" `Quick test_log_concurrent;
    Alcotest.test_case "jsonl parse-back + orphans" `Quick
      test_jsonl_roundtrip_and_orphans;
    Alcotest.test_case "null backend" `Quick test_null_backend;
    Alcotest.test_case "metrics report" `Quick test_render_report;
    Alcotest.test_case "telemetry report" `Quick test_telemetry_report;
  ]
