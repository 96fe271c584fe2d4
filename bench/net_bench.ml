(* The networked serving tier under open-loop load: N shard processes
   (spawned from this very binary via the hidden `net-shard` entry), a
   consistent-hash client driving a fixed arrival rate through real
   sockets, and a mid-run SIGKILL + restart of one shard to exercise
   reconnect, retry and durable-store replay.

   Every request carries a trace id; shard processes write their spans as
   JSONL and dump their flight recorders, and after the run the bench
   merges the span files into one validated Chrome trace, scrapes the
   live ops plane, and cross-checks the scraped counters against the load
   generator's ledger. *)

open Overgen_workload
module Wire = Overgen_net.Wire
module Shard_map = Overgen_net.Shard_map
module Node = Overgen_net.Node
module Server = Overgen_net.Server
module Client = Overgen_net.Client
module Load_gen = Overgen_net.Load_gen
module Registry = Overgen_service.Registry
module Service = Overgen_service.Service
module Trace = Overgen_service.Trace
module Obs = Overgen_obs.Obs
module Rng = Overgen_util.Rng

let general =
  lazy
    (match Overgen.general ~model:(Overgen.train_model ()) Kernels.all with
    | Ok o -> o
    | Error e -> failwith ("general overlay: " ^ e))

(* a shard whose store already holds the overlay skips regeneration — the
   restart path the bench times *)
let setup registry =
  if Registry.find registry "general" = None then
    match Registry.register registry ~name:"general" (Lazy.force general) with
    | Ok _ -> ()
    | Error e -> failwith ("register general: " ^ e)

let parse_cluster s =
  match Node.parse_cluster s with Ok c -> c | Error e -> failwith e

(* ---------------- child process: one shard ---------------- *)

let shard args =
  let me = ref (-1)
  and cluster = ref ""
  and store = ref None
  and trace_out = ref None
  and flight_out = ref None in
  let rec parse = function
    | "--me" :: v :: rest ->
      me := int_of_string v;
      parse rest
    | "--cluster" :: v :: rest ->
      cluster := v;
      parse rest
    | "--store" :: v :: rest ->
      store := Some v;
      parse rest
    | "--trace-out" :: v :: rest ->
      trace_out := Some v;
      parse rest
    | "--flight-out" :: v :: rest ->
      flight_out := Some v;
      parse rest
    | [] -> ()
    | a :: _ -> failwith ("net-shard: unknown argument " ^ a)
  in
  parse args;
  let cluster = parse_cluster !cluster in
  if !me < 0 || !me >= Array.length cluster then
    failwith "net-shard: --me outside --cluster";
  if !trace_out <> None then Obs.enable ();
  let fd, _ =
    match Server.listen ~port:cluster.(!me).Node.port () with
    | Ok v -> v
    | Error e -> failwith e
  in
  let config =
    { (Node.default_config ~cluster ~me:!me) with store_path = !store }
  in
  let node =
    match Node.init ~setup config with Ok n -> n | Error e -> failwith e
  in
  let server = Server.start ?flight_out:!flight_out ~node ~fd () in
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  while not !stop do
    try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Server.stop server;
  Node.shutdown node;
  (* a SIGKILLed shard never reaches this line: its spans die with it,
     and only the restarted instance's file survives *)
  Option.iter
    (fun path ->
      Obs.Export.write_file ~path
        (Obs.Export.to_jsonl ~pid:!me (Obs.Span.spans ())))
    !trace_out;
  exit 0

(* ---------------- parent: the bench ---------------- *)

let pick_free_ports k =
  Array.init k (fun _ ->
      match Server.listen ~port:0 () with
      | Ok (fd, port) ->
        Unix.close fd;
        port
      | Error e -> failwith e)

let span_file dir i = Filename.concat dir (Printf.sprintf "shard-%d.spans.jsonl" i)
let flight_file dir i = Filename.concat dir (Printf.sprintf "shard-%d.flight.jsonl" i)

let spawn_shard ~cluster_s ~store_dir i =
  let store = Filename.concat store_dir (Printf.sprintf "shard-%d.store" i) in
  Unix.create_process Sys.executable_name
    [|
      Sys.executable_name; "net-shard"; "--me"; string_of_int i; "--cluster";
      cluster_s; "--store"; store; "--trace-out"; span_file store_dir i;
      "--flight-out"; flight_file store_dir i;
    |]
    Unix.stdin Unix.stdout Unix.stderr

let wait_ready ~timeout_s (peer : Node.peer) =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    let ready =
      match Client.connect ~host:peer.Node.host ~port:peer.Node.port with
      | Error _ -> false
      | Ok c ->
        let ok =
          match Client.rpc c Wire.Ping with Ok (Wire.Pong _) -> true | _ -> false
        in
        Client.close c;
        ok
    in
    if ready then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.2;
      loop ()
    end
  in
  loop ()

let shard_stats (peer : Node.peer) =
  match Client.connect ~host:peer.Node.host ~port:peer.Node.port with
  | Error e -> Error e
  | Ok c ->
    let r =
      match Client.rpc c Wire.Stats_req with
      | Ok (Wire.Stats { served; warm_loaded; _ }) -> Ok (served, warm_loaded)
      | Ok _ -> Error "unexpected stats reply"
      | Error e -> Error e
    in
    Client.close c;
    r

(* live ops-plane scrapes *)

let shard_rpc (peer : Node.peer) msg =
  match Client.connect ~host:peer.Node.host ~port:peer.Node.port with
  | Error e -> Error e
  | Ok c ->
    let r = Client.rpc c msg in
    Client.close c;
    r

let shard_metrics peer =
  match shard_rpc peer Wire.Metrics_req with
  | Ok (Wire.Metrics_dump { text; _ }) -> text
  | Ok _ -> failwith "unexpected metrics reply"
  | Error e -> failwith ("metrics scrape: " ^ e)

let shard_events peer ~max =
  match shard_rpc peer (Wire.Recent_events_req { max }) with
  | Ok (Wire.Events { events; _ }) -> events
  | Ok _ -> failwith "unexpected events reply"
  | Error e -> failwith ("events scrape: " ^ e)

(* sum every sample of one metric in a Prometheus text exposition
   (metric name followed by a space or a label set) *)
let prom_value text name =
  let total = ref 0.0 and found = ref false in
  List.iter
    (fun line ->
      let nl = String.length name and ll = String.length line in
      if
        ll > nl
        && String.sub line 0 nl = name
        && (line.[nl] = ' ' || line.[nl] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub line (i + 1) (ll - i - 1)) with
          | Some v ->
            total := !total +. v;
            found := true
          | None -> ())
        | None -> ())
    (String.split_on_char '\n' text);
  if !found then Some !total else None

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Resends are bounded by the load generator's in-flight window (256 per
   sender) per dropped connection, so this cap catches a resend storm (a
   retry loop, a ledger bug) whatever the SIGKILL's timing. *)
let max_resends = 1000

let run extra =
  (* defaults match the acceptance scenario: >= 100k requests at a fixed
     arrival rate against 2 shard processes with a mid-run kill+restart *)
  let requests = ref 100_000
  and rate = ref 20_000.0
  and shards = ref 2
  and seed = ref 42
  and kill = ref true in
  let rec parse = function
    | "--smoke" :: rest ->
      requests := 3000;
      rate := 3000.0;
      parse rest
    | "--requests" :: v :: rest ->
      requests := int_of_string v;
      parse rest
    | "--rate" :: v :: rest ->
      rate := float_of_string v;
      parse rest
    | "--shards" :: v :: rest ->
      shards := int_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--no-kill" :: rest ->
      kill := false;
      parse rest
    | [] -> ()
    | a :: _ -> failwith ("net: unknown argument " ^ a)
  in
  parse extra;
  let n = !requests and rate = !rate and shards = !shards in
  let kill = !kill && shards >= 2 in
  (* every ~101st request is deliberately misrouted so the server's
     redirect path runs; a correctly-routing client would never exercise
     it *)
  let misroute_every = if shards >= 2 then Some 101 else None in
  Exp_common.header
    (Printf.sprintf
       "Networked serving tier: %d requests at %.0f req/s over %d shard \
        process%s%s"
       n rate shards
       (if shards = 1 then "" else "es")
       (if kill then " (kill+restart shard 1 mid-run)" else ""));
  (* the parent is the client process: record client_send spans here *)
  Obs.enable ();
  Obs.Span.reset ();
  let store_dir = Filename.temp_dir "overgen-net-bench" "" in
  let ports = pick_free_ports shards in
  let cluster =
    Array.map (fun port -> { Node.host = "127.0.0.1"; port }) ports
  in
  let cluster_s =
    String.concat ","
      (Array.to_list (Array.map (Printf.sprintf "127.0.0.1:%d") ports))
  in
  let pids = Array.init shards (spawn_shard ~cluster_s ~store_dir) in
  let teardown () =
    Array.iter (fun pid -> try Unix.kill pid Sys.sigterm with _ -> ()) pids;
    Array.iter (fun pid -> try ignore (Unix.waitpid [] pid) with _ -> ()) pids
  in
  (try
     Printf.printf "  shards on ports [%s], stores in %s\n%!"
       (String.concat "; " (Array.to_list (Array.map string_of_int ports)))
       store_dir;
     Array.iteri
       (fun i peer ->
         if not (wait_ready ~timeout_s:240.0 peer) then
           failwith (Printf.sprintf "shard %d never became ready" i))
       cluster;
     Printf.printf "  all shards ready\n%!";
     let spec =
       Trace.spec ~seed:!seed ~requests:n ~users:12 ~working_set:3
         ~overlays:[ ("general", Kernels.all) ] ()
     in
     let trace_rng = Rng.of_string (Printf.sprintf "net-bench-trace:%d" !seed) in
     let wire_requests =
       Load_gen.of_trace
         ~trace:(fun () -> Obs.Span.fresh_trace trace_rng)
         (Trace.generate spec)
     in
     Printf.printf "  trace: %d requests, %d distinct (overlay, kernel) keys\n%!"
       n (Trace.distinct_keys spec);
     let chaos =
       if not kill then None
       else
         Some
           (Thread.create
              (fun () ->
                let kill_at = float_of_int n /. 3.0 /. rate in
                let restart_at = 2.0 *. kill_at in
                Unix.sleepf kill_at;
                Printf.printf "  [chaos] SIGKILL shard 1 (pid %d)\n%!" pids.(1);
                Unix.kill pids.(1) Sys.sigkill;
                ignore (Unix.waitpid [] pids.(1));
                Unix.sleepf (restart_at -. kill_at);
                Printf.printf "  [chaos] restarting shard 1 on port %d\n%!"
                  ports.(1);
                pids.(1) <- spawn_shard ~cluster_s ~store_dir 1)
              ())
     in
     let cfg =
       {
         Load_gen.cluster;
         requests = wire_requests;
         rate;
         timeout_s = (float_of_int n /. rate) +. 240.0;
         misroute_every;
       }
     in
     let summary = Load_gen.run cfg in
     Option.iter Thread.join chaos;
     print_string (Load_gen.report summary);
     let warm_loaded =
       if not kill then 0
       else
         match shard_stats cluster.(1) with
         | Ok (served, warm_loaded) ->
           Printf.printf
             "  restarted shard 1: served %d, warm-loaded %d cache entries \
              from its store\n"
             served warm_loaded;
           warm_loaded
         | Error e ->
           failwith ("restarted shard 1 unreachable after the run: " ^ e)
     in
     let failures = ref [] in
     if summary.Load_gen.completed <> n then
       failures :=
         Printf.sprintf "only %d/%d requests completed" summary.Load_gen.completed
           n
         :: !failures;
     if summary.Load_gen.failed <> 0 then
       failures :=
         Printf.sprintf "%d requests failed" summary.Load_gen.failed :: !failures;
     if summary.Load_gen.resends > max_resends then
       failures :=
         Printf.sprintf "%d resends (cap %d)" summary.Load_gen.resends
           max_resends
         :: !failures;
     if kill && warm_loaded <= 0 then
       failures :=
         "restarted shard replayed nothing from its durable store" :: !failures;
     (* --- live ops plane: scrape shard 0 (never killed) and cross-check
        its counters against the load generator's ledger.  Shard 0 must
        have received every completed request it owns, and can't have
        received more than everything the client ever sent: each
        request's first send, every resend and every redirect followed. *)
     let mtext = shard_metrics cluster.(0) in
     let prom name =
       match prom_value mtext name with
       | Some v -> v
       | None ->
         failures := Printf.sprintf "shard 0 metrics lack %s" name :: !failures;
         0.0
     in
     let req_total0 = prom "overgen_net_requests_total" in
     let redirects0 = prom "overgen_net_redirects_total" in
     if not (contains mtext "overgen_net_request_ms_bucket") then
       failures := "shard 0 metrics lack the request_ms histogram" :: !failures;
     let map = Shard_map.make ~shards in
     let owner_of (r : Wire.request) =
       Shard_map.owner map
         (Wire.route_key ~overlay:r.overlay ~payload:r.payload ~tuned:r.tuned)
     in
     let owned0 = ref 0 and mis_to0 = ref 0 in
     Array.iteri
       (fun i r ->
         let owner = owner_of r in
         if owner = 0 then incr owned0;
         match misroute_every with
         | Some k when i mod k = 0 && (owner + 1) mod shards = 0 -> incr mis_to0
         | _ -> ())
       wire_requests;
     Printf.printf
       "  ops plane: shard 0 requests_total %.0f (owns %d of the trace, %d \
        misrouted to it), redirects_total %.0f\n"
       req_total0 !owned0 !mis_to0 redirects0;
     if summary.Load_gen.completed = n && int_of_float req_total0 < !owned0 then
       failures :=
         Printf.sprintf
           "ledger mismatch: shard 0 counted %.0f requests but owns %d \
            completed ones"
           req_total0 !owned0
         :: !failures;
     let upper = n + summary.Load_gen.resends + summary.Load_gen.redirects in
     if int_of_float req_total0 > upper then
       failures :=
         Printf.sprintf
           "ledger mismatch: shard 0 counted %.0f requests, more than the \
            client could have sent it (bound %d)"
           req_total0 upper
         :: !failures;
     if !mis_to0 > 0 && redirects0 < 1.0 then
       failures :=
         Printf.sprintf
           "%d requests were misrouted to shard 0 yet it redirected none"
           !mis_to0
         :: !failures;
     (* the restarted shard's flight recorder must still hold its pinned
        store-replay milestone, queryable over the wire *)
     if kill then begin
       (* ask for more than ring capacity + pin cap: the pinned replay
          milestone is the restarted shard's oldest event, and [max]
          keeps the newest *)
       let events = shard_events cluster.(1) ~max:5000 in
       if not (List.exists (fun e -> contains e "store_replay") events) then
         failures :=
           "restarted shard 1's recent events lack store_replay" :: !failures
     end;
     (match !failures with
     | [] -> ()
     | fs ->
       teardown ();
       List.iter (Printf.eprintf "  FAILED: %s\n") fs;
       exit 1)
   with e ->
     teardown ();
     raise e);
  teardown ();
  (* --- after graceful teardown every surviving shard has written its
     span file and flight dump: stitch the distributed trace together and
     check it end to end *)
  let failures = ref [] in
  let module SS = Set.Make (String) in
  let client_spans =
    List.map (fun s -> (100, s)) (Obs.Span.spans ())
  in
  let shard_spans =
    List.concat
      (List.init shards (fun i ->
           let path = span_file store_dir i in
           if not (Sys.file_exists path) then begin
             failures :=
               Printf.sprintf "shard %d wrote no span file" i :: !failures;
             []
           end
           else
             match Obs.Export.parse_jsonl (read_file path) with
             | Ok spans -> spans
             | Error e ->
               failures := Printf.sprintf "%s: %s" path e :: !failures;
               []))
  in
  let all_spans = client_spans @ shard_spans in
  (match Obs.Export.orphans all_spans with
  | [] -> ()
  | orphans ->
    failures :=
      Printf.sprintf "merged trace has %d orphan parent references"
        (List.length orphans)
      :: !failures);
  let names =
    (100, "client")
    :: List.init shards (fun i -> (i, Printf.sprintf "shard %d" i))
  in
  let doc = Obs.Export.merge_chrome ~names all_spans in
  (match Obs.Export.validate_json doc with
  | Ok () -> ()
  | Error e ->
    failures := Printf.sprintf "merged trace is not valid JSON: %s" e :: !failures);
  let merged_path = Filename.concat store_dir "trace-merged.json" in
  Obs.Export.write_file ~path:merged_path doc;
  (* distributed correlation: every trace id a shard server saw must be
     one this client minted, and the two timelines must actually overlap *)
  let span_traces spans pred =
    List.fold_left
      (fun acc (_, (s : Obs.Span.span)) ->
        if s.Obs.Span.trace <> "" && pred s then SS.add s.Obs.Span.trace acc
        else acc)
      SS.empty spans
  in
  let client_traces =
    span_traces client_spans (fun s -> s.Obs.Span.name = "client_send")
  in
  let server_traces = span_traces shard_spans (fun _ -> true) in
  if SS.is_empty client_traces then
    failures := "client recorded no client_send spans" :: !failures;
  if SS.is_empty server_traces then
    failures := "shards recorded no spans with a trace id" :: !failures;
  if not (SS.subset server_traces client_traces) then
    failures :=
      Printf.sprintf
        "%d server-side trace ids were never minted by the client"
        (SS.cardinal (SS.diff server_traces client_traces))
      :: !failures;
  Printf.printf
    "  trace: merged %d spans (%d client, %d shard-side) into %s; %d trace \
     ids cross the wire\n"
    (List.length all_spans) (List.length client_spans)
    (List.length shard_spans) merged_path
    (SS.cardinal (SS.inter server_traces client_traces));
  (* flight dumps survive the processes that wrote them *)
  (if kill then
     let path = flight_file store_dir 1 in
     if not (Sys.file_exists path) then
       failures := "restarted shard 1 wrote no flight dump" :: !failures
     else
       let dump = read_file path in
       if not (contains dump "store_replay") then
         failures := "shard 1 flight dump lacks store_replay" :: !failures;
       if not (contains dump "drain_begin" && contains dump "drain_end") then
         failures := "shard 1 flight dump lacks drain events" :: !failures);
  (match !failures with
  | [] -> ()
  | fs ->
    List.iter (Printf.eprintf "  FAILED: %s\n") fs;
    exit 1)
