module Stats = Overgen_util.Stats
module Obs = Overgen_obs.Obs

type config = {
  cluster : Node.peer array;
  requests : Wire.request array;
  rate : float;
  timeout_s : float;
  misroute_every : int option;
}

type summary = {
  requests : int;
  completed : int;
  ok : int;
  failed : int;
  hits : int;
  redirects : int;
  reconnects : int;
  resends : int;
  resent_requests : int;
  wall_s : float;
  goodput_rps : float;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  resend_p99_ms : float;
}

let of_trace ?(trace = fun () -> "") reqs =
  let sources = Hashtbl.create 32 in
  let source = function
    | Overgen_service.Service.Source src -> src
    | Kernel k -> (
      match Hashtbl.find_opt sources k with
      | Some src -> src
      | None ->
        let src = Overgen_workload.C_source.emit k in
        Hashtbl.add sources k src;
        src)
  in
  Array.map
    (fun (r : Overgen_service.Service.request) ->
      {
        Wire.id = r.id;
        user = r.user;
        tenant = r.tenant;
        overlay = r.overlay;
        payload = Wire.Source (source r.payload);
        tuned = r.tuned;
        trace = trace ();
        parent_span = 0;
      })
    (Array.of_list reqs)

(* Shared completion ledger: one slot per request, settled exactly once
   no matter which shard thread hears the answer (a resent request can in
   principle be answered twice; the first answer wins). *)
type ledger = {
  gm : Mutex.t;
  done_ : bool array;
  latency : float array;  (* scheduled-arrival-to-completion, seconds *)
  resent : bool array;
      (* the request was re-sent at least once (lost connection or a
         retryable error); its latency includes reconnect/backoff waits,
         so the headline percentiles exclude it *)
  mutable ok : int;
  mutable failed : int;
  mutable hits : int;
  mutable redirects : int;
  mutable reconnects : int;
  mutable resends : int;
  mutable n_done : int;
}

let settle ledger idx ~lat ~ok ~hit =
  Mutex.lock ledger.gm;
  let fresh = not ledger.done_.(idx) in
  if fresh then begin
    ledger.done_.(idx) <- true;
    ledger.latency.(idx) <- lat;
    ledger.n_done <- ledger.n_done + 1;
    if ok then ledger.ok <- ledger.ok + 1 else ledger.failed <- ledger.failed + 1;
    if hit then ledger.hits <- ledger.hits + 1
  end;
  Mutex.unlock ledger.gm;
  fresh

let all_done ledger total =
  Mutex.lock ledger.gm;
  let d = ledger.n_done in
  Mutex.unlock ledger.gm;
  d >= total

let count ledger field =
  Mutex.lock ledger.gm;
  let v = field ledger in
  Mutex.unlock ledger.gm;
  v

(* Per-shard send queue: (request index, earliest send time), sorted by
   time.  Initial entries carry their scheduled arrival; retries and
   redirects are inserted near the head, so insertion stays cheap. *)
type shard_q = { qm : Mutex.t; mutable q : (int * float) list }

let enqueue sq idx at =
  Mutex.lock sq.qm;
  let rec ins = function
    | [] -> [ (idx, at) ]
    | ((_, t') :: _) as l when at < t' -> (idx, at) :: l
    | e :: rest -> e :: ins rest
  in
  sq.q <- ins sq.q;
  Mutex.unlock sq.qm

let pop_due sq now max =
  Mutex.lock sq.qm;
  let rec split k acc = function
    | (idx, at) :: rest when at <= now && k < max ->
      split (k + 1) (idx :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let due, rest = split 0 [] sq.q in
  sq.q <- rest;
  Mutex.unlock sq.qm;
  due

let next_due sq =
  Mutex.lock sq.qm;
  let v = match sq.q with [] -> None | (_, at) :: _ -> Some at in
  Mutex.unlock sq.qm;
  v

let queue_empty sq =
  Mutex.lock sq.qm;
  let e = sq.q = [] in
  Mutex.unlock sq.qm;
  e

let retry_pause = 0.05
let dial_backoff_max = 0.5

(* Cap on unanswered requests per connection.  Open-loop means the due
   backlog is unbounded when the cluster falls behind the arrival rate;
   blindly writing all of it would fill both TCP buffers (the sender
   blocked in [write], the server blocked writing responses nobody
   reads) and deadlock the pair.  The cap keeps the pipeline deep
   enough to saturate the shard while guaranteeing the sender always
   returns to draining responses.  It also stays under the server's
   admission queue, so overload shows up as client-side queueing delay
   in the percentiles, not as a [Queue_full] retry storm. *)
let max_inflight = 256

(* One shard's sender: owns the connection, sends due requests, parses
   whatever response bytes have arrived, retries/redirects as needed. *)
let sender (cfg : config) ledger queues shard t0 deadline () =
  let sq = queues.(shard) in
  let peer = cfg.cluster.(shard) in
  let n = Array.length cfg.requests in
  let conn = ref None in
  let inflight : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let rbuf = ref "" in
  let dial_pause = ref 0.01 in
  let drop_conn () =
    (match !conn with
    | Some c ->
      Client.close c;
      conn := None;
      rbuf := "";
      Mutex.lock ledger.gm;
      ledger.reconnects <- ledger.reconnects + 1;
      ledger.resends <- ledger.resends + Hashtbl.length inflight;
      Hashtbl.iter (fun idx () -> ledger.resent.(idx) <- true) inflight;
      Mutex.unlock ledger.gm
    | None -> ());
    (* everything in flight on the lost connection must be resent *)
    let now = Unix.gettimeofday () in
    Hashtbl.iter (fun idx () -> enqueue sq idx now) inflight;
    Hashtbl.reset inflight
  in
  let ensure_conn () =
    match !conn with
    | Some c -> Some c
    | None -> (
      match Client.connect ~host:peer.Node.host ~port:peer.Node.port with
      | Ok c ->
        conn := Some c;
        dial_pause := 0.01;
        Some c
      | Error _ ->
        Unix.sleepf !dial_pause;
        dial_pause := Float.min dial_backoff_max (!dial_pause *. 2.0);
        None)
  in
  let sched i = t0 +. (float_of_int i /. cfg.rate) in
  let handle_resp now = function
    | Wire.Result { id; outcome; cache_hit; _ } -> (
      Hashtbl.remove inflight id;
      match outcome with
      | Ok _ ->
        ignore (settle ledger id ~lat:(now -. sched id) ~ok:true ~hit:cache_hit)
      | Error e when Wire.retryable e ->
        (* final answers only: back off and offer it again *)
        Mutex.lock ledger.gm;
        ledger.resends <- ledger.resends + 1;
        ledger.resent.(id) <- true;
        Mutex.unlock ledger.gm;
        enqueue sq id (now +. retry_pause)
      | Error _ ->
        ignore (settle ledger id ~lat:(now -. sched id) ~ok:false ~hit:false))
    | Wire.Redirect { id; owner } ->
      Hashtbl.remove inflight id;
      Mutex.lock ledger.gm;
      ledger.redirects <- ledger.redirects + 1;
      Mutex.unlock ledger.gm;
      if owner >= 0 && owner < Array.length queues then enqueue queues.(owner) id now
      else enqueue sq id (now +. retry_pause)
    | Wire.Pong _ | Wire.Stats _ | Wire.Bye | Wire.Metrics_dump _
    | Wire.Health _ | Wire.Events _ ->
      ()
  in
  (* drain complete frames out of the receive accumulator *)
  let parse_frames () =
    let now = Unix.gettimeofday () in
    let s = !rbuf in
    let len = String.length s in
    let pos = ref 0 in
    let bad = ref false in
    (try
       while !pos < len && not !bad do
         match Wire.deframe ~pos:!pos s with
         | Ok (payload, consumed) ->
           pos := !pos + consumed;
           (match Wire.decode_resp payload with
           | Ok msg -> handle_resp now msg
           | Error _ -> bad := true)
         | Error Wire.Truncated -> raise Exit
         | Error _ -> bad := true
       done
     with Exit -> ());
    rbuf := String.sub s !pos (len - !pos);
    if !bad then drop_conn ()
  in
  let read_available c =
    let chunk = Bytes.create 65536 in
    match Unix.read (Client.fd c) chunk 0 65536 with
    | 0 -> drop_conn ()
    | r ->
      rbuf := !rbuf ^ Bytes.sub_string chunk 0 r;
      parse_frames ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> drop_conn ()
  in
  let send_due now =
    let budget = max_inflight - Hashtbl.length inflight in
    if budget > 0 then
      match pop_due sq now budget with
      | [] -> ()
      | due -> (
        match ensure_conn () with
        | None ->
          (* shard unreachable: put them back for after the backoff *)
          let at = Unix.gettimeofday () +. retry_pause in
          List.iter (fun idx -> enqueue sq idx at) due
        | Some c ->
          List.iter
            (fun idx ->
              if not (Hashtbl.mem inflight idx) then begin
                Hashtbl.replace inflight idx ();
                let base = cfg.requests.(idx) in
                let send parent_span =
                  Client.send c
                    (Wire.Compile { base with Wire.id = idx; parent_span })
                in
                let sent =
                  if base.Wire.trace <> "" && Obs.on () then
                    (* sender threads share one domain, so the span
                       carries its trace explicitly instead of through
                       the per-domain context a thread switch mid-send
                       would hand to another request *)
                    Obs.Span.with_detached_span ~trace:base.Wire.trace
                      ~attrs:
                        [
                          ("id", string_of_int idx);
                          ("shard", string_of_int shard);
                        ]
                      "client_send" send
                  else send base.Wire.parent_span
                in
                match sent with Ok () -> () | Error _ -> drop_conn ()
              end)
            due)
  in
  let rec loop () =
    let now = Unix.gettimeofday () in
    if now < deadline && not (all_done ledger n) then begin
      send_due now;
      let wait =
        let upper = 0.01 in
        (* pipeline full: nothing to send until a response frees a slot,
           so just wait on the socket *)
        if Hashtbl.length inflight >= max_inflight then upper
        else
          match next_due sq with
          | Some at -> Float.max 0.0 (Float.min upper (at -. now))
          | None -> upper
      in
      (match !conn with
      | Some c -> (
        match Unix.select [ Client.fd c ] [] [] wait with
        | [ _ ], _, _ -> read_available c
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | None ->
        (* nothing to read from; idle briefly unless sends are due *)
        if queue_empty sq && Hashtbl.length inflight = 0 then Unix.sleepf wait
        else Unix.sleepf (Float.min wait 0.005));
      loop ()
    end
  in
  loop ();
  (match !conn with Some c -> Client.close c | None -> ())

let run (cfg : config) =
  let n = Array.length cfg.requests in
  if n = 0 then invalid_arg "Load_gen.run: empty request array";
  if cfg.rate <= 0.0 then invalid_arg "Load_gen.run: rate <= 0";
  let shards = Array.length cfg.cluster in
  let map = Shard_map.make ~shards in
  let ledger =
    {
      gm = Mutex.create ();
      done_ = Array.make n false;
      latency = Array.make n 0.0;
      resent = Array.make n false;
      ok = 0;
      failed = 0;
      hits = 0;
      redirects = 0;
      reconnects = 0;
      resends = 0;
      n_done = 0;
    }
  in
  let queues = Array.init shards (fun _ -> { qm = Mutex.create (); q = [] }) in
  let t0 = Unix.gettimeofday () +. 0.05 in
  (* route each request to its owner up front; within a shard the indices
     stay in schedule order, so each queue starts sorted *)
  let per_shard = Array.make shards [] in
  for i = n - 1 downto 0 do
    let r = cfg.requests.(i) in
    let owner =
      Shard_map.owner map
        (Wire.route_key ~overlay:r.Wire.overlay ~payload:r.Wire.payload
           ~tuned:r.Wire.tuned)
    in
    (* deliberate misrouting exercises the server's redirect path, which
       a correctly-routing client otherwise never triggers *)
    let target =
      match cfg.misroute_every with
      | Some k when k > 0 && shards > 1 && i mod k = 0 -> (owner + 1) mod shards
      | _ -> owner
    in
    per_shard.(target) <- (i, t0 +. (float_of_int i /. cfg.rate)) :: per_shard.(target)
  done;
  Array.iteri (fun s q -> queues.(s).q <- q) per_shard;
  let deadline = t0 +. cfg.timeout_s in
  let threads =
    Array.init shards (fun s ->
        Thread.create (sender cfg ledger queues s t0 deadline) ())
  in
  Array.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let pick keep =
    Array.to_list ledger.latency
    |> List.filteri (fun i _ -> ledger.done_.(i) && keep i)
    |> List.map (fun l -> l *. 1000.0)
  in
  (* headline percentiles describe the first-send path; requests that
     were resent carry reconnect/backoff waits and get their own tail *)
  let first = pick (fun i -> not ledger.resent.(i)) in
  let resent_lats = pick (fun i -> ledger.resent.(i)) in
  let all = pick (fun _ -> true) in
  let ps = Stats.percentiles (Array.of_list first) [ 50.0; 90.0; 99.0 ] in
  let p50, p90, p99 =
    match ps with [ a; b; c ] -> (a, b, c) | _ -> (0.0, 0.0, 0.0)
  in
  let resend_p99 =
    match Stats.percentiles (Array.of_list resent_lats) [ 99.0 ] with
    | [ p ] -> p
    | _ -> 0.0
  in
  let resent_requests =
    Array.to_list ledger.resent
    |> List.filteri (fun i _ -> ledger.done_.(i))
    |> List.filter (fun r -> r)
    |> List.length
  in
  {
    requests = n;
    completed = count ledger (fun l -> l.n_done);
    ok = count ledger (fun l -> l.ok);
    failed = count ledger (fun l -> l.failed);
    hits = count ledger (fun l -> l.hits);
    redirects = count ledger (fun l -> l.redirects);
    reconnects = count ledger (fun l -> l.reconnects);
    resends = count ledger (fun l -> l.resends);
    resent_requests;
    wall_s;
    goodput_rps = (if wall_s > 0.0 then float_of_int ledger.ok /. wall_s else 0.0);
    mean_ms = Stats.mean first;
    p50_ms = p50;
    p90_ms = p90;
    p99_ms = p99;
    max_ms = List.fold_left Float.max 0.0 all;
    resend_p99_ms = resend_p99;
  }

let report s =
  let b = Buffer.create 512 in
  Printf.bprintf b "net load: %d requests, %d completed (%d ok, %d failed)\n"
    s.requests s.completed s.ok s.failed;
  Printf.bprintf b "  hits %d  redirects %d  reconnects %d  resends %d (%d requests)\n"
    s.hits s.redirects s.reconnects s.resends s.resent_requests;
  Printf.bprintf b "  wall %.2fs  goodput %.0f req/s\n" s.wall_s s.goodput_rps;
  Printf.bprintf b
    "  first-send ms: p50 %.2f  p90 %.2f  p99 %.2f  mean %.2f  max(all) %.2f\n"
    s.p50_ms s.p90_ms s.p99_ms s.mean_ms s.max_ms;
  Printf.bprintf b "  resend p99 %.2f ms\n" s.resend_p99_ms;
  Buffer.contents b
