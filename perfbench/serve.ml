(* Workload [serve]: the compile service's request path over loopback TCP.

   One shard child process (this executable's [shard] entry) serves from
   memory only, with one worker domain, and admits every compile through
   Fleet.Admission as one of two equal-weight tenants without quotas.  A
   single-threaded open-loop driver on Client and Wire sends each request
   at its due time and times it from then.  About one request in ten
   carries a distinct seeded C source (Gen → C_source.emit) that always
   misses the schedule cache; the rest are IR kernels drawn from Zipf
   working sets over the 19 Table II kernels, cache hits after first touch.

   Two phases follow the warm-up.  The open-loop phase offers one frozen
   rate; it feeds the report, the validity bound on the driver's lag, and
   (traced runs) the per-layer metrics.  The closed-loop phase keeps the
   shard saturated with [callers] concurrent callers, each sending its
   next request when its previous one is answered, in [closed_windows]
   windows; the medians over the windows of their throughput, p50 and p90
   are the capacity and the end-to-end latencies.  On a shared
   2-core VM, open-loop latency swings between runs by several times with
   the host's scheduling delays.  The closed loop's wall-clock figures
   swung too (20-40% between runs), with how long its three busy threads
   waited for two CPUs, so they are taken on the loop's CPU clock and
   scaled by the CPU's speed around each window. *)

open Overgen_workload
module U = Util
module Obs = Overgen_obs.Obs
module Wire = Overgen_net.Wire
module Client = Overgen_net.Client
module Server = Overgen_net.Server
module Node = Overgen_net.Node
module Io = Overgen_net.Io
module Service = Overgen_service.Service
module Registry = Overgen_service.Registry
module Trace = Overgen_service.Trace
module Tenant = Overgen_fleet.Tenant
module Compile = Overgen_mdfg.Compile
module Spatial = Overgen_scheduler.Spatial
module Schedule = Overgen_scheduler.Schedule
module Frontend = Overgen_frontend.Frontend
module Gen = Overgen_frontend.Gen
module Rng = Overgen_util.Rng

(* Offered rate of the open-loop phase, about half the closed-loop capacity
   measured when the benchmark was defined (2-core x86-64 VM, ~4300/s). *)
let frozen_rate = 2000.0

let open_s (ctx : U.ctx) =
  if ctx.tiny then 0.5 else if ctx.trace then ctx.seconds /. 4.0 else ctx.seconds *. 0.2

(* The closed-loop phase does a fixed number of requests, set by --seconds:
   about --seconds at the ~5000 answers/s of the 2-core VM the benchmark
   was defined on. *)
let callers = 32

(* The closed loop runs as this many windows of equal size, and each
   closed-loop metric is the median over them: a window's figures spread
   by about 15% around the run's median, so a median over 16 windows still
   moved by ~5% between runs. *)
let closed_windows = 32

let closed_requests (ctx : U.ctx) =
  if ctx.tiny then 500 else int_of_float (ctx.seconds *. 0.8 *. 6000.0)

(* A run whose driver sent later than this at p99 is invalid. *)
let lag_bound_ms = 50.0
let source_share = 0.1
let tenants = [| "tenant-a"; "tenant-b" |]
let tail_q = 0.99

(* The closed loop's tail.  Its per-window p99 read ~15 ms in some runs and
   ~20 ms in others of the same build, a 32-45% spread over ten runs; the
   p90 spread 8%. *)
let closed_tail_q = 0.90

(* ---------------- shard child ---------------- *)

let shard_main args =
  let overlay_path = ref "" and lane = ref "" in
  let rec parse = function
    | "--overlay" :: v :: r -> overlay_path := v; parse r
    | "--lane" :: v :: r -> lane := v; parse r
    | [] -> ()
    | a :: _ -> failwith ("shard: unexpected argument " ^ a)
  in
  parse args;
  let overlay : Overgen.overlay = Marshal.from_string (U.read_file !overlay_path) 0 in
  let fd, port = match Server.listen ~port:0 () with Ok v -> v | Error e -> failwith e in
  let cluster = [| { Node.host = "127.0.0.1"; port } |] in
  let config =
    {
      (Node.default_config ~cluster ~me:0) with
      workers = 1;
      cache_capacity = 1 lsl 16;
      tenants = Array.to_list (Array.map (fun id -> Tenant.make id) tenants);
    }
  in
  let setup reg =
    match Registry.register reg ~name:"general" overlay with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let node = match Node.init ~setup config with Ok n -> n | Error e -> failwith e in
  let server = Server.start ~node ~fd () in
  Printf.printf "READY %d\n%!" port;
  (* control lines on stdin; end of file is the stop signal *)
  let rec control () =
    match input_line stdin with
    | "trace" ->
      Obs.Span.reset ();
      Obs.enable ();
      control ()
    | _ -> control ()
    | exception End_of_file -> ()
  in
  control ();
  Server.stop ~drain_timeout_s:5.0 server;
  Node.shutdown node;
  if Obs.on () && !lane <> "" then
    U.write_file !lane (Obs.Export.to_jsonl ~pid:0 (Obs.Span.spans ()));
  exit 0

type shard = { pid : int; port : int; ctl : out_channel; mutable alive : bool }

(* Close the control pipe (the child drains and exits) and reap it; kill
   it if it does not go within a few seconds. *)
let stop_shard sh =
  if sh.alive then begin
    sh.alive <- false;
    (try close_out sh.ctl with Sys_error _ -> ());
    let deadline = U.now () +. 8.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] sh.pid with
      | 0, _ when U.now () < deadline ->
        Unix.sleepf 0.05;
        reap ()
      | 0, _ ->
        (try Unix.kill sh.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] sh.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ()
  end

let spawn_shard ~overlay_path ~lane =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "shard"; "--overlay"; overlay_path; "--lane"; lane |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let ctl = Unix.out_channel_of_descr in_w in
  let ic = Unix.in_channel_of_descr out_r in
  let ready =
    match Unix.select [ out_r ] [] [] 60.0 with
    | [], _, _ -> None
    | _ -> (
      match String.split_on_char ' ' (input_line ic) with
      | [ "READY"; p ] -> int_of_string_opt p
      | _ | (exception End_of_file) -> None)
  in
  close_in ic;
  let sh = { pid; port = Option.value ready ~default:0; ctl; alive = true } in
  at_exit (fun () -> stop_shard sh);
  if ready = None then failwith "shard did not become ready";
  sh

(* ---------------- the request mix ---------------- *)

let digest schedules =
  (List.length schedules, List.fold_left (fun acc (s : Schedule.t) -> acc + s.ii) 0 schedules)

(* Distinct generated sources that parse back and schedule on [sys], with
   their reference digests.  Names and content hashes never collide with
   the Table II kernels or each other, so each one misses the cache. *)
let make_sources ~seed ~sys n =
  let rng = Rng.of_string (Printf.sprintf "serve-sources:%d" seed) in
  let cov = Gen.Cov.create () in
  let seen = Hashtbl.create (2 * n) in
  List.iter (fun k -> Hashtbl.replace seen (Compile.hash_compiled (Compile.compile k)) ()) Kernels.all;
  let out = ref [] and count = ref 0 and tries = ref 0 in
  while !count < n do
    incr tries;
    if !tries > 20 * (n + 10) then failwith "could not generate enough schedulable sources";
    let k = Gen.kernel ~cov rng in
    let src = C_source.emit k in
    match Frontend.parse src with
    | Error _ -> ()
    | Ok parsed when List.mem parsed.Ir.name Kernels.names -> ()
    | Ok parsed -> (
      let cc = Compile.compile parsed in
      let h = Compile.hash_compiled cc in
      if not (Hashtbl.mem seen h) then
        match Spatial.schedule_app sys cc with
        | Error _ -> ()
        | Ok s ->
          Hashtbl.replace seen h ();
          out := (src, digest s) :: !out;
          incr count)
  done;
  Array.of_list (List.rev !out)

type item = { req : Wire.request; expect : int * int }

(* [n] requests for one phase: Zipf working sets over the 19 kernels for
   the two tenants, with about one in ten replaced by the next unused
   source from [sources] (a cursor shared across phases). *)
let make_phase ~seed ~phase ~refs ~sources ~cursor n =
  let spec =
    Trace.spec ~seed:((seed * 100) + phase) ~requests:n ~users:64 ~working_set:4 ~tenants
      ~overlays:[ ("general", Kernels.all) ] ()
  in
  let rng = Rng.of_string (Printf.sprintf "serve-mix:%d:%d" seed phase) in
  Array.of_list
    (List.mapi
       (fun i (r : Service.request) ->
         let base =
           { Wire.id = (phase * 1_000_000) + i; user = r.user; tenant = r.tenant;
             overlay = "general"; payload = Wire.Source ""; tuned = false; trace = "";
             parent_span = 0 }
         in
         if Rng.float rng 1.0 < source_share && !cursor < Array.length sources then begin
           let src, d = sources.(!cursor) in
           incr cursor;
           { req = { base with payload = Wire.Source src }; expect = d }
         end
         else
           match r.payload with
           | Service.Kernel k ->
             { req = { base with payload = Wire.Kernel k }; expect = List.assoc k.name refs }
           | Service.Source _ -> failwith "trace generated a source payload")
       (Trace.generate spec))

(* ---------------- the open-loop driver ---------------- *)

type phase_result = {
  sent : int;
  failures : int;  (** error answers plus requests never answered *)
  mismatches : string list;
  latency_ms : float list;  (** due time to answer, answered requests *)
  lag_ms : float list;  (** due time to send *)
  responses : (int, Wire.resp_msg) Hashtbl.t;
}

(* Send [items] at [rate] on [client] and collect the answers.  With
   [trace_rng], each send and receive is a span and requests carry trace
   ids drawn from it. *)
let drive ?trace_rng client ~rate (items : item array) =
  let traced = Option.is_some trace_rng in
  let n = Array.length items in
  let fd = Client.fd client in
  let base = if n > 0 then items.(0).req.id else 0 in
  let answered = Array.make n false in
  let lat = ref [] and lag = ref [] and mismatches = ref [] in
  let failures = ref 0 and received = ref 0 and next = ref 0 in
  let responses = Hashtbl.create n in
  let t0 = U.now () +. 0.01 in
  let due i = t0 +. (float_of_int i /. rate) in
  let hard_deadline = due (n - 1) +. 10.0 in
  let receive () =
    let got =
      if traced then U.span "client_recv" (fun () -> Client.recv client) else Client.recv client
    in
    let t = U.now () in
    match got with
    | Error e -> failwith ("driver connection: " ^ e)
    | Ok (Wire.Result { id; outcome; _ } as resp) ->
      let i = id - base in
      if i >= 0 && i < n && not answered.(i) then begin
        answered.(i) <- true;
        incr received;
        lat := ((t -. due i) *. 1e3) :: !lat;
        Hashtbl.replace responses i resp;
        match outcome with
        | Ok schedules when digest schedules = items.(i).expect -> ()
        | Ok _ ->
          incr failures;
          mismatches :=
            Printf.sprintf "request %d: schedule digest differs from the reference" id :: !mismatches
        | Error _ -> incr failures
      end
    | Ok _ -> ()
  in
  while !received < n && U.now () < hard_deadline do
    let t = U.now () in
    if !next < n && t >= due !next then begin
      let i = !next in
      lag := ((t -. due i) *. 1e3) :: !lag;
      let send () =
        let req =
          match trace_rng with
          | Some rng ->
            { items.(i).req with trace = Obs.Span.fresh_trace rng;
              parent_span = Obs.Span.current_id () }
          | None -> items.(i).req
        in
        Client.send client (Wire.Compile req)
      in
      (match if traced then U.span "client_send" send else send () with
      | Ok () -> ()
      | Error e -> failwith ("driver connection: " ^ e));
      incr next
    end
    else
      let wait = if !next < n then due !next -. t else hard_deadline -. t in
      match Unix.select [ fd ] [] [] (Float.max 0.0 wait) with
      | [], _, _ -> ()
      | _ -> receive ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let unanswered = n - !received in
  {
    sent = !next;
    failures = !failures + unanswered;
    mismatches = List.rev !mismatches;
    latency_ms = !lat;
    lag_ms = !lag;
    responses;
  }

(* ---------------- ops-plane scrapes ---------------- *)

let rpc client msg =
  match Client.rpc client msg with Ok r -> r | Error e -> failwith ("ops scrape: " ^ e)

let scrape_metrics client =
  match rpc client Wire.Metrics_req with
  | Wire.Metrics_dump { text; _ } -> text
  | _ -> failwith "unexpected metrics reply"

let scrape_stats client =
  match rpc client Wire.Stats_req with
  | Wire.Stats { hits; misses; _ } -> (hits, misses)
  | _ -> failwith "unexpected stats reply"

let hist_delta ~before ~after name =
  U.bucket_delta (U.prom_buckets after name) (U.prom_buckets before name)

(* ---------------- per-layer replays ---------------- *)

let wire_costs (items : item array) (res : phase_result) =
  (* the answers as they came off the wire; re-encoding them is the
     server's cost, not the driver's, so it stays outside the timing *)
  let pairs =
    List.filter_map
      (fun (i, it) ->
        Option.map
          (fun resp -> (it.req, Wire.frame (Wire.encode_resp resp)))
          (Hashtbl.find_opt res.responses i))
      (List.mapi (fun i it -> (i, it)) (Array.to_list items))
  in
  let req_bytes = ref 0 and resp_bytes = ref 0 in
  let (), codec_s =
    U.time (fun () ->
        List.iter
          (fun (req, resp_frame) ->
            let req_frame = Wire.frame (Wire.encode_req (Wire.Compile req)) in
            (match Wire.deframe resp_frame with
            | Ok (payload, _) -> ignore (Sys.opaque_identity (Wire.decode_resp payload))
            | Error _ -> failwith "response frame does not deframe");
            req_bytes := !req_bytes + String.length req_frame;
            resp_bytes := !resp_bytes + String.length resp_frame)
          pairs)
  in
  let n = float_of_int (max 1 (List.length pairs)) in
  (float_of_int !req_bytes /. n, float_of_int !resp_bytes /. n, codec_s *. 1e6 /. n)

let parse_us (items : item array) =
  let srcs =
    Array.to_list items
    |> List.filter_map (fun it ->
           match it.req.payload with Wire.Source s -> Some s | Wire.Kernel _ -> None)
  in
  let (), t =
    U.time (fun () ->
        List.iter (fun s -> ignore (U.span "frontend" (fun () -> Frontend.parse s))) srcs)
  in
  t *. 1e6 /. float_of_int (max 1 (List.length srcs))

(* ---------------- the run ---------------- *)

let connect port =
  match Client.connect ~host:"127.0.0.1" ~port with Ok c -> c | Error e -> failwith e

(* Closed loop: [window] callers, each sending its next request as soon as
   its previous one is answered, until all [items] are answered.  The first
   tenth settles the queue; the rest give the wall-clock throughput
   (answers over the time from the first of them sent to the last
   answered) and the latency samples (send to answer).  [cpu_s] is the
   run time of the shard's and the driver's threads over the window: it
   leaves out the time they waited for a CPU and the time the host ran
   something else on the vCPU. *)
type closed = {
  rps : float;
  cpu_s : float;
  wall_s : float;
  c_latency_ms : float list;
  c_sent : int;
  c_failures : int;
  c_mismatches : string list;
}

let closed_loop client ~shard_pid ~window (items : item array) =
  let n = Array.length items in
  let base = items.(0).req.id and settle_n = n / 10 in
  let fd = Client.fd client in
  (* The driver moves bytes only: requests are encoded before the loop and
     answers decoded after it, so its own codec work (Wire.encode_req /
     decode_resp, ~57 us a request, reported as wire.codec_us) does not
     compete with the shard for the two CPUs while the loop is timed. *)
  let payloads = Array.map (fun it -> Wire.encode_req (Wire.Compile it.req)) items in
  let sent_at = Array.make n 0.0 in
  let answers = Array.make n ("", 0.0) in
  let next = ref 0 and received = ref 0 in
  let io f = try f () with Io.Closed -> failwith "driver connection closed" in
  let cpu () = U.cpu_s None +. U.cpu_s (Some shard_pid) in
  let cpu0 = cpu () and t0 = U.now () in
  while !received < n do
    while !next - !received < window && !next < n do
      sent_at.(!next) <- U.now ();
      io (fun () -> Io.send_frame fd payloads.(!next));
      incr next
    done;
    match io (fun () -> Io.recv_frame fd) with
    | Error e -> failwith ("driver connection: " ^ Wire.frame_error_to_string e)
    | Ok payload ->
      answers.(!received) <- (payload, U.now ());
      incr received
  done;
  let wall_s = U.now () -. t0 and cpu_s = cpu () -. cpu0 in
  let failures = ref 0 and counted = ref 0 and mismatches = ref [] and lat = ref [] in
  Array.iter
    (fun (payload, t) ->
      match Wire.decode_resp payload with
      | Ok (Wire.Result { id; outcome = Ok schedules; _ })
        when id - base >= 0 && id - base < n && digest schedules = items.(id - base).expect ->
        let i = id - base in
        if i >= settle_n then begin
          incr counted;
          lat := ((t -. sent_at.(i)) *. 1e3) :: !lat
        end
      | Ok (Wire.Result { id; outcome = Ok _; _ }) ->
        incr failures;
        mismatches :=
          Printf.sprintf "request %d: schedule digest differs from the reference" id :: !mismatches
      | Ok _ | Error _ -> incr failures)
    answers;
  {
    rps = float_of_int !counted /. (snd answers.(n - 1) -. sent_at.(settle_n));
    cpu_s;
    wall_s;
    c_latency_ms = !lat;
    c_sent = n;
    c_failures = !failures;
    c_mismatches = List.rev !mismatches;
  }

let run (ctx : U.ctx) =
  let t_setup = U.now () in
  let _model, overlay = U.model_and_general () in
  let sys = overlay.Overgen.design.sys in
  U.mkdir_p ctx.out_dir;
  let overlay_path = Filename.concat ctx.out_dir "serve-overlay.bin" in
  U.write_file overlay_path (Marshal.to_string overlay []);
  let lane = Filename.concat ctx.out_dir (Printf.sprintf "serve-seed%d.shard.jsonl" ctx.seed) in
  (try Sys.remove lane with Sys_error _ -> ());
  let refs =
    List.map
      (fun (k : Ir.kernel) ->
        match Spatial.schedule_app sys (Compile.compile k) with
        | Ok s -> (k.name, digest s)
        | Error e -> failwith (k.name ^ ": " ^ e))
      Kernels.all
  in
  let n_lat = int_of_float (frozen_rate *. open_s ctx) in
  let warm_n = if ctx.tiny then 50 else 400 in
  let closed_n = if ctx.trace then 0 else closed_requests ctx in
  let n_sources =
    (* the share plus five standard deviations of its binomial count *)
    let reqs = float_of_int (warm_n + (n_lat * if ctx.trace then 2 else 1) + closed_n) in
    int_of_float ((source_share *. reqs) +. (5.0 *. sqrt (reqs *. source_share)) +. 10.0)
  in
  let sources = make_sources ~seed:ctx.seed ~sys n_sources in
  let cursor = ref 0 in
  let phase_items phase n = make_phase ~seed:ctx.seed ~phase ~refs ~sources ~cursor n in
  let sh = spawn_shard ~overlay_path ~lane in
  let client = connect sh.port in
  (* warm-up: first touch of every kernel, then a short burst at the
     frozen rate *)
  List.iteri
    (fun i (k : Ir.kernel) ->
      match
        rpc client
          (Wire.Compile
             { Wire.id = 900_000_000 + i; user = "warm"; tenant = tenants.(0); overlay = "general";
               payload = Wire.Kernel k; tuned = false; trace = ""; parent_span = 0 })
      with
      | Wire.Result { outcome = Ok _; _ } -> ()
      | _ -> failwith ("warm-up compile of " ^ k.name ^ " failed"))
    Kernels.all;
  let warm = drive client ~rate:frozen_rate (phase_items 0 warm_n) in
  let setup_s = U.now () -. t_setup in
  let checks = ref warm.mismatches in
  let check errors = checks := !checks @ errors in
  (* latency at the frozen rate, with scrapes around it *)
  let items = phase_items 1 n_lat in
  let m_before = scrape_metrics client and s_before = scrape_stats client in
  let res = drive client ~rate:frozen_rate items in
  let m_after = scrape_metrics client and s_after = scrape_stats client in
  (* the shard's peak after a fixed amount of work *)
  let hwm = U.vm_hwm_mb (Some sh.pid) in
  check res.mismatches;
  let lag_p99 = U.percentile 0.99 res.lag_ms in
  if lag_p99 > lag_bound_ms then
    check [ Printf.sprintf "invalid run: driver lag p99 %.2f ms exceeds %.0f ms" lag_p99 lag_bound_ms ];
  let p50 = U.median res.latency_ms and tail = U.percentile tail_q res.latency_ms in
  let min_n = U.min_samples_for tail_q in
  if (not ctx.tiny) && List.length res.latency_ms < min_n then
    check [ Printf.sprintf "only %d latency samples, need %d" (List.length res.latency_ms) min_n ];
  let hits = fst s_after - fst s_before and misses = snd s_after - snd s_before in
  let hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  let outcome ?(table = "") ~e2e ~layer ~report () =
    {
      U.correct = !checks = [];
      attempted = res.sent;
      failed = res.failures;
      e2e;
      layer;
      report;
      table;
      notes = !checks;
    }
  in
  if not ctx.trace then begin
    let nwin = if ctx.tiny then 1 else closed_windows in
    let per_window = closed_n / nwin in
    let items_c = phase_items 3 (nwin * per_window) in
    (* the reference task is timed on the driver's CPU clock too, so a
       window's slowdown is the CPU's speed around it *)
    let paired =
      U.paired_windows ~clock:(fun () -> U.cpu_s None) nwin (fun w ->
          closed_loop client ~shard_pid:sh.pid ~window:callers
            (Array.sub items_c (w * per_window) per_window))
    in
    let windows = List.map fst paired in
    let slowdown = U.median (List.map snd paired) in
    List.iter
      (fun (c : closed) ->
        check c.c_mismatches;
        if (not ctx.tiny) && List.length c.c_latency_ms < U.min_samples_for closed_tail_q then
          check [ "too few closed-loop latency samples in a window" ])
      windows;
    Client.close client;
    stop_shard sh;
    let over_windows f = U.median (List.map f windows) in
    let c_sent = List.fold_left (fun a (c : closed) -> a + c.c_sent) 0 windows in
    let c_failures = List.fold_left (fun a (c : closed) -> a + c.c_failures) 0 windows in
    let attempted = res.sent + c_sent and failed = res.failures + c_failures in
    let ok_frac = 1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)) in
    let c50 c = U.median c.c_latency_ms and c90 c = U.percentile closed_tail_q c.c_latency_ms in
    (* On the CPU clock, on the defining machine's scale: a window's rate
       per CPU-second times its slowdown; a latency times the window's
       CPU-seconds per wall-second (the CPUs the loop kept busy), over its
       slowdown. *)
    let cpus (c : closed) = c.cpu_s /. c.wall_s in
    let over_paired f = U.median (List.map (fun (c, s) -> f c s) paired) in
    {
      (outcome
         ~e2e:
           [
             U.m "setup_s" "s" (setup_s /. slowdown);
             U.m "ok_frac" "ratio" ok_frac;
             U.m "peak_rss_mb" "MiB" hwm;
             U.m "throughput_per_s" "1/s"
               (over_paired (fun c s -> float_of_int c.c_sent /. c.cpu_s *. s));
             U.m "p50_ms" "ms" (over_paired (fun c s -> c50 c *. cpus c /. s));
             U.m "tail_ms" "ms" (over_paired (fun c s -> c90 c *. cpus c /. s));
             U.m "quality" "ratio" hit_ratio;
           ]
         ~layer:[]
         ~report:
           [
             ("raw_setup_s", "s", setup_s);
             ("machine_slowdown", "x", slowdown);
             ("closed_loop_cpus_busy", "cpus", over_windows cpus);
             ("closed_loop_wall_rps", "1/s", over_windows (fun c -> c.rps));
             ("closed_loop_wall_p50_ms", "ms", over_windows c50);
             ("closed_loop_wall_p90_ms", "ms", over_windows c90);
             ("open_loop_offered_rps", "1/s", frozen_rate);
             ("open_loop_req_p50_ms", "ms", p50);
             ("open_loop_req_p99_ms", "ms", tail);
             ("open_loop_samples", "count", float_of_int (List.length res.latency_ms));
             ("loadgen_lag_p99_ms", "ms", lag_p99);
             ("closed_loop_callers", "count", float_of_int callers);
             ("closed_loop_windows", "count", float_of_int nwin);
             ( "closed_loop_req_p99_ms", "ms",
               over_windows (fun c -> U.percentile tail_q c.c_latency_ms) );
             ("closed_loop_samples_per_window", "count", float_of_int (per_window - (per_window / 10)));
             ("failed_frac", "ratio", 1.0 -. ok_frac);
             ("hit_ratio", "ratio", hit_ratio);
           ]
         ())
      with
      attempted;
      failed;
    }
  end
  else begin
    let hd = hist_delta ~before:m_before ~after:m_after in
    let net = hd "overgen_net_request_ms" in
    let queue = hd "overgen_service_queue_wait_seconds" in
    let busy = hd "overgen_service_latency_seconds" in
    let q p h = U.bucket_quantile p h in
    let req_bytes, resp_bytes, codec_us = wire_costs items res in
    let parse = parse_us items in
    (* traced phase: same rate and length, spans on both sides *)
    output_string sh.ctl "trace\n";
    flush sh.ctl;
    let items_t = phase_items 2 n_lat in
    let trace_rng = Rng.of_string (Printf.sprintf "serve-trace:%d" ctx.seed) in
    let traced, spans =
      U.traced (fun () -> drive ~trace_rng client ~rate:frozen_rate items_t)
    in
    check traced.mismatches;
    Client.close client;
    (* the shard writes its span lane on the way out *)
    stop_shard sh;
    let shard_spans =
      match Obs.Export.parse_jsonl (U.read_file lane) with
      | Ok s -> s
      | Error e -> failwith ("shard span lane: " ^ e)
      | exception Sys_error e -> failwith ("shard span lane: " ^ e)
    in
    let trace_errors, table =
      U.emit_trace ctx ~workload:"serve" ~names:[ (100, "driver"); (0, "shard") ]
        (spans @ shard_spans)
    in
    check trace_errors;
    let server_p50 = q 0.5 net in
    outcome ~table ~e2e:[]
      ~layer:
        [
          U.m "frontend.parse_us" "us" parse;
          U.m "wire.req_bytes" "bytes" req_bytes;
          U.m "wire.resp_bytes" "bytes" resp_bytes;
          U.m "wire.codec_us" "us" codec_us;
          U.m "net.server_p50_ms" "ms" server_p50;
          U.m "net.server_p99_ms" "ms" (q 0.99 net);
          U.m "service.queue_wait_p99_ms" "ms" (q 0.99 queue *. 1e3);
          U.m "service.busy_p50_ms" "ms" (q 0.5 busy *. 1e3);
          U.m "service.busy_p99_ms" "ms" (q 0.99 busy *. 1e3);
          U.m "service.hit_ratio" "ratio" hit_ratio;
          U.m "serve.unaccounted_ms" "ms"
            (server_p50 -. (q 0.5 queue *. 1e3) -. (q 0.5 busy *. 1e3));
          U.m "loadgen.lag_p99_ms" "ms" lag_p99;
          U.m "obs.trace_overhead_frac" "ratio" ((U.median traced.latency_ms /. p50) -. 1.0);
        ]
      ~report:[]
      ()
  end
