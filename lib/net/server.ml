module Metrics = Overgen_obs.Metrics
module Fault = Overgen_fault.Fault
module Obs = Overgen_obs.Obs
module Log = Overgen_obs.Obs.Log

type conn = {
  cfd : Unix.file_descr;
  wm : Mutex.t;  (* serializes writes; responses come from many domains *)
  mutable alive : bool;
  mutable reader : Thread.t option;
      (* set by the acceptor under [t.m]; [stop] joins it while the
         connection is live, and it leaves [t.conns] with the connection *)
}

type t = {
  node_ : Node.t;
  lfd : Unix.file_descr;
  stop_r : Unix.file_descr;  (* self-pipe waking the acceptor's select *)
  stop_w : Unix.file_descr;
  c_frames_in : Metrics.counter;
  c_frames_out : Metrics.counter;
  c_frames_corrupt : Metrics.counter;
  c_conns : Metrics.counter;
  c_conn_drops : Metrics.counter;
  c_redirects : Metrics.counter;
  c_requests : Metrics.counter;
  c_failures : Metrics.counter;
  h_request_ms : Metrics.histogram;
  flight_out : string option;
  mutable flight_dumped : bool;
      (* the failure-path dump fires once; the drain dump overwrites it
         with full history *)
  m : Mutex.t;
  mutable stopping : bool;
  mutable conns : conn list;
  mutable next_id : int;
  (* internal id -> where its response goes; its size is the in-flight
     count the graceful stop drains.  Admission time and trace id ride
     along for the latency histogram and failure-path events. *)
  pending : (int, conn * int * float * string) Hashtbl.t;
  mutable acceptor : Thread.t option;
}

exception Drop_conn

let listen ?(backlog = 64) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd backlog;
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  with
  | p -> Ok (fd, p)
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with _ -> ());
    Error (Printf.sprintf "listen on port %d: %s" port (Unix.error_message e))

let send_resp t conn resp =
  let frame = Wire.frame (Wire.encode_resp resp) in
  Mutex.lock conn.wm;
  (if conn.alive then
     match Io.write_all conn.cfd frame with
     | () -> Metrics.incr t.c_frames_out
     | exception (Io.Closed | Unix.Unix_error _) -> conn.alive <- false);
  Mutex.unlock conn.wm

(* A request failed: record it in the flight recorder, and write the
   first automatic dump if the server was given a dump path — the crash
   forensics must exist even if the process never drains gracefully. *)
let note_failure t ~client_id ~trace err =
  Metrics.incr t.c_failures;
  Log.record ~level:Log.Warn ~trace Log.default "request_failed"
    ~attrs:
      [
        ("id", string_of_int client_id);
        ("shard", string_of_int (Node.me t.node_));
        ("error", Wire.wire_error_to_string err);
      ];
  match t.flight_out with
  | None -> ()
  | Some path ->
    Mutex.lock t.m;
    let first = not t.flight_dumped in
    t.flight_dumped <- true;
    Mutex.unlock t.m;
    if first then try Log.write_dump ~path Log.default with Sys_error _ -> ()

(* Translate a response's server-internal id back to the id the client
   chose, then deliver it.  Exactly once per pending entry: the table
   removal under the lock is the once-only gate. *)
let settle t internal_id resp =
  Mutex.lock t.m;
  let entry = Hashtbl.find_opt t.pending internal_id in
  Hashtbl.remove t.pending internal_id;
  Mutex.unlock t.m;
  match entry with
  | None -> ()
  | Some (conn, client_id, t_admit, trace) ->
    let resp =
      match resp with
      | Wire.Result r ->
        Metrics.observe t.h_request_ms
          ((Unix.gettimeofday () -. t_admit) *. 1000.0);
        (match r.outcome with
        | Error err -> note_failure t ~client_id ~trace err
        | Ok _ -> ());
        Wire.Result { r with id = client_id }
      | Wire.Redirect r ->
        Metrics.incr t.c_redirects;
        Wire.Redirect { r with id = client_id }
      | ( Wire.Pong _ | Wire.Stats _ | Wire.Bye | Wire.Metrics_dump _
        | Wire.Health _ | Wire.Events _ ) as r ->
        r
    in
    send_resp t conn resp

let handle_compile t conn (req : Wire.request) =
  (* Fault window: the request is read but nothing is written yet — an
     injection kills the connection, losing every response routed to it,
     which is exactly the crash the exactly-once test re-drives. *)
  (match Fault.point Fault.Points.net_conn_drop with
  | () -> ()
  | exception Fault.Injected _ ->
    Metrics.incr t.c_conn_drops;
    Log.record ~level:Log.Warn ~trace:req.Wire.trace Log.default "conn_drop"
      ~attrs:
        [
          ("id", string_of_int req.Wire.id);
          ("shard", string_of_int (Node.me t.node_));
        ];
    raise Drop_conn);
  let internal_id =
    Mutex.lock t.m;
    let n = t.next_id in
    t.next_id <- n + 1;
    Hashtbl.add t.pending n
      (conn, req.Wire.id, Unix.gettimeofday (), req.Wire.trace);
    Mutex.unlock t.m;
    n
  in
  Metrics.incr t.c_requests;
  let orig_id = req.Wire.id in
  let req = { req with Wire.id = internal_id } in
  (* Re-establish the request's trace context for this hop.  The
     server_decode span hangs the hop under the client's send span via
     the remote_parent attribute (span ids are per-process, so the link
     is an attribute, not a parent pointer). *)
  Obs.Span.with_trace req.Wire.trace @@ fun () ->
  let dispatch () =
    Node.handle_net t.node_ (Wire.Compile req) ~respond:(settle t internal_id)
  in
  if req.Wire.trace <> "" && Obs.on () then
    Obs.Span.with_span "server_decode"
      ~attrs:
        [
          ("id", string_of_int orig_id);
          ("shard", string_of_int (Node.me t.node_));
          ("remote_parent", string_of_int req.Wire.parent_span);
        ]
      dispatch
  else dispatch ()

let handle_frame t conn payload =
  Metrics.incr t.c_frames_in;
  (* A frame that checksummed fine can still be poisoned here: the
     injection is indistinguishable from wire damage downstream. *)
  (match Fault.point Fault.Points.net_frame_corrupt with
  | () -> ()
  | exception Fault.Injected _ ->
    Metrics.incr t.c_frames_corrupt;
    Log.record ~level:Log.Warn Log.default "frame_corrupt"
      ~attrs:[ ("shard", string_of_int (Node.me t.node_)) ];
    raise Drop_conn);
  match Wire.decode_req payload with
  | Error _ ->
    Metrics.incr t.c_frames_corrupt;
    raise Drop_conn
  | Ok (Wire.Compile req) -> handle_compile t conn req
  | Ok
      (( Wire.Ping | Wire.Stats_req | Wire.Quiesce | Wire.Metrics_req
       | Wire.Health_req | Wire.Recent_events_req _ ) as msg) ->
    Node.handle_net t.node_ msg ~respond:(send_resp t conn)

let close_conn t conn =
  Mutex.lock conn.wm;
  conn.alive <- false;
  Mutex.unlock conn.wm;
  (try Unix.shutdown conn.cfd Unix.SHUTDOWN_ALL with _ -> ());
  (try Unix.close conn.cfd with _ -> ());
  Mutex.lock t.m;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.m

let reader t conn () =
  let rec loop () =
    match Io.recv_frame conn.cfd with
    | Ok payload ->
      handle_frame t conn payload;
      loop ()
    | Error _ ->
      Metrics.incr t.c_frames_corrupt;
      raise Drop_conn
  in
  (try loop () with
  | Io.Closed | Drop_conn | Unix.Unix_error _ -> ()
  | _ -> ());
  close_conn t conn

let acceptor t () =
  let rec loop () =
    match Unix.select [ t.lfd; t.stop_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | rs, _, _ ->
      if List.memq t.stop_r rs then ()
      else begin
        (match Unix.accept t.lfd with
        | cfd, _ ->
          (try Unix.setsockopt cfd Unix.TCP_NODELAY true with _ -> ());
          let conn = { cfd; wm = Mutex.create (); alive = true; reader = None } in
          Metrics.incr t.c_conns;
          Mutex.lock t.m;
          t.conns <- conn :: t.conns;
          conn.reader <- Some (Thread.create (reader t conn) ());
          Mutex.unlock t.m
        | exception Unix.Unix_error _ -> ());
        loop ()
      end
  in
  loop ()

(* Millisecond-resolution request buckets: client-visible latencies live
   between ~1 ms (cache hit over loopback) and seconds (cold compiles
   behind a deep queue). *)
let request_ms_buckets =
  [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0; 5000.0 |]

let start ?flight_out ~node ~fd () =
  Io.quiet_sigpipe ();
  (match Unix.getsockname fd with
  | Unix.ADDR_INET _ -> ()
  | _ -> invalid_arg "Server.start: not an inet socket");
  let stop_r, stop_w = Unix.pipe () in
  (* the node's registry: one Metrics_req scrape answers with transport,
     node and service telemetry *)
  let reg = Node.metrics node in
  let c name help = Metrics.counter reg name ~help in
  let t =
    {
      node_ = node;
      lfd = fd;
      stop_r;
      stop_w;
      c_frames_in = c "overgen_net_frames_in_total" "frames received";
      c_frames_out = c "overgen_net_frames_out_total" "frames written";
      c_frames_corrupt =
        c "overgen_net_frames_corrupt_total"
          "corrupt/torn/mis-versioned frames (connection closed)";
      c_conns = c "overgen_net_conns_total" "connections accepted";
      c_conn_drops =
        c "overgen_net_conn_drops_total" "connections dropped by fault injection";
      c_redirects = c "overgen_net_redirects_total" "redirect answers sent";
      c_requests = c "overgen_net_requests_total" "compile requests accepted";
      c_failures =
        c "overgen_net_requests_failed_total" "compile requests answered with an error";
      h_request_ms =
        Metrics.histogram reg "overgen_net_request_ms"
          ~help:"accept-to-answer latency of compile requests (ms)"
          ~buckets:request_ms_buckets;
      flight_out;
      flight_dumped = false;
      m = Mutex.create ();
      stopping = false;
      conns = [];
      next_id = 0;
      pending = Hashtbl.create 256;
      acceptor = None;
    }
  in
  t.acceptor <- Some (Thread.create (acceptor t) ());
  t

let stop ?(drain_timeout_s = 30.0) t =
  Mutex.lock t.m;
  let already = t.stopping in
  t.stopping <- true;
  Mutex.unlock t.m;
  if not already then begin
    (* 1. stop admitting: new compiles answer Shutting_down *)
    Node.quiesce t.node_;
    (* 2. stop accepting *)
    (try ignore (Unix.write_substring t.stop_w "x" 0 1) with _ -> ());
    Option.iter Thread.join t.acceptor;
    (* 3. drain: every accepted request's response must reach its socket *)
    Mutex.lock t.m;
    let inflight0 = Hashtbl.length t.pending in
    Mutex.unlock t.m;
    Log.record ~pin:true Log.default "drain_begin"
      ~attrs:
        [
          ("shard", string_of_int (Node.me t.node_));
          ("inflight", string_of_int inflight0);
        ];
    let t_drain = Unix.gettimeofday () in
    let deadline = t_drain +. drain_timeout_s in
    let rec drain () =
      Mutex.lock t.m;
      let inflight = Hashtbl.length t.pending in
      Mutex.unlock t.m;
      if inflight > 0 && Unix.gettimeofday () < deadline then begin
        Thread.yield ();
        Unix.sleepf 0.002;
        drain ()
      end
      else inflight
    in
    let leftover = drain () in
    Log.record ~pin:true
      ~level:(if leftover = 0 then Log.Info else Log.Error)
      Log.default "drain_end"
      ~attrs:
        [
          ("shard", string_of_int (Node.me t.node_));
          ("drained", string_of_int (inflight0 - leftover));
          ("leftover", string_of_int leftover);
          ( "wall_ms",
            Printf.sprintf "%.1f" ((Unix.gettimeofday () -. t_drain) *. 1000.0)
          );
        ];
    (* 4. tear the transport down *)
    Mutex.lock t.m;
    let conns = t.conns in
    Mutex.unlock t.m;
    List.iter (fun c -> close_conn t c) conns;
    List.iter (fun c -> Option.iter Thread.join c.reader) conns;
    (try Unix.close t.lfd with _ -> ());
    (try Unix.close t.stop_r with _ -> ());
    (try Unix.close t.stop_w with _ -> ());
    (* the graceful dump has full history; it overwrites any earlier
       failure-path dump *)
    match t.flight_out with
    | None -> ()
    | Some path -> ( try Log.write_dump ~path Log.default with Sys_error _ -> ())
  end
