(* The network tier: wire framing (round-trip, truncation, version and
   checksum rejection), the consistent-hash shard map, a real
   socket round trip through server + service workers, per-connection id
   namespacing, fault injection at the frame/connection level with the
   exactly-once completion guarantee, and kill-and-restart durable
   replay. *)

open Overgen_workload
module Wire = Overgen_net.Wire
module Shard_map = Overgen_net.Shard_map
module Node = Overgen_net.Node
module Server = Overgen_net.Server
module Client = Overgen_net.Client
module Load_gen = Overgen_net.Load_gen
module Io = Overgen_net.Io
module Registry = Overgen_service.Registry
module Cache = Overgen_service.Cache
module Service = Overgen_service.Service
module Admission = Overgen_fleet.Admission
module Trace = Overgen_service.Trace
module Fault = Overgen_fault.Fault

let model () = Models.trained 21

let general =
  lazy
    (match Overgen.general ~model:(model ()) Kernels.all with
    | Ok o -> o
    | Error e -> failwith ("general overlay: " ^ e))

(* registers only what a durable restore left missing, so a rebooted
   node skips regeneration *)
let setup registry =
  if Registry.find registry "general" = None then
    match Registry.register registry ~name:"general" (Lazy.force general) with
    | Ok _ -> ()
    | Error e -> failwith ("register general: " ^ e)

let must_node = function
  | Ok n -> n
  | Error e -> Alcotest.failf "node init: %s" e

let tmp_path prefix =
  Filename.temp_file ("overgen-net-" ^ prefix) ".store"

(* ---------------- framing ---------------- *)

let test_frame_roundtrip () =
  let payload = "hello frames" in
  let f = Wire.frame payload in
  Alcotest.(check int)
    "frame size" (Wire.header_bytes + String.length payload) (String.length f);
  match Wire.deframe f with
  | Ok (p, consumed) ->
    Alcotest.(check string) "payload back" payload p;
    Alcotest.(check int) "consumed all" (String.length f) consumed
  | Error e -> Alcotest.failf "deframe: %s" (Wire.frame_error_to_string e)

let test_truncated_rejected () =
  let f = Wire.frame "some payload bytes" in
  (* every proper prefix must be rejected as truncated, never misparsed *)
  for cut = 0 to String.length f - 1 do
    match Wire.deframe (String.sub f 0 cut) with
    | Error Wire.Truncated -> ()
    | Error e ->
      Alcotest.failf "cut %d: wrong error %s" cut (Wire.frame_error_to_string e)
    | Ok _ -> Alcotest.failf "cut %d: parsed a truncated frame" cut
  done

let test_version_and_corruption_rejected () =
  let f = Wire.frame "payload" in
  let flip i c s =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (match Wire.deframe (flip 2 (Char.chr (Wire.version + 1)) f) with
  | Error (Wire.Version_mismatch v) ->
    Alcotest.(check int) "reports peer version" (Wire.version + 1) v
  | _ -> Alcotest.fail "future version accepted");
  (match Wire.deframe (flip 0 'X' f) with
  | Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (match Wire.deframe (flip (Wire.header_bytes + 2) '\xFF' f) with
  | Error Wire.Checksum_mismatch -> ()
  | _ -> Alcotest.fail "corrupt payload accepted");
  (* an announced length beyond the cap is rejected without allocating *)
  let huge = Bytes.of_string f in
  Bytes.set_int32_le huge 4 (Int32.of_int (Wire.max_payload_bytes + 1));
  match Wire.deframe (Bytes.to_string huge) with
  | Error (Wire.Oversized _) -> ()
  | _ -> Alcotest.fail "oversized frame accepted"

(* A frame checks its CRC where it starts, also past other frames: two
   frames back to back deframe at [pos], and a flipped payload byte of
   the second is caught in place.  [Io.recv_frame] over a socket pair
   rejects the same damage and then reads the next frame intact. *)
let test_crc_in_place () =
  let a = Wire.frame "first" and b = Wire.frame "second payload" in
  let both = a ^ b in
  (match Wire.deframe ~pos:(String.length a) both with
  | Ok (p, used) ->
    Alcotest.(check string) "second payload" "second payload" p;
    Alcotest.(check int) "second frame consumed" (String.length b) used
  | Error e -> Alcotest.failf "deframe at pos: %s" (Wire.frame_error_to_string e));
  let bad = Bytes.of_string both in
  let i = String.length a + Wire.header_bytes + 3 in
  Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0x10));
  (match Wire.deframe ~pos:(String.length a) (Bytes.to_string bad) with
  | Error Wire.Checksum_mismatch -> ()
  | _ -> Alcotest.fail "corrupt second payload accepted");
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close r; Unix.close w)
    (fun () ->
      Io.write_all w (Bytes.sub_string bad (String.length a) (String.length b));
      Io.send_frame w "next";
      (match Io.recv_frame r with
      | Error Wire.Checksum_mismatch -> ()
      | _ -> Alcotest.fail "recv_frame accepted a corrupt payload");
      match Io.recv_frame r with
      | Ok p -> Alcotest.(check string) "next frame intact" "next" p
      | Error e -> Alcotest.failf "recv_frame: %s" (Wire.frame_error_to_string e))

(* ---------------- message round-trip properties ---------------- *)

let gen_request =
  QCheck.Gen.(
    let* name = oneofl Kernels.names in
    let* id = int_range 0 1_000_000 in
    let* user = string_size ~gen:printable (int_range 0 12) in
    let* tenant = oneofl [ ""; "acme"; "t-1"; "batch tenant" ] in
    let* overlay = oneofl [ "general"; "dense"; "a b\nc" ] in
    let* tuned = bool in
    let* trace =
      oneofl [ ""; "00ff00ff00ff00ff00ff00ff00ff00ff"; "deadbeef" ]
    in
    let* parent_span = int_range 0 1_000_000 in
    let* as_source = bool in
    let payload =
      (* the IR shorthand encodes as the emitted source *)
      if as_source then Wire.Source (C_source.emit (Kernels.find name))
      else Wire.Kernel (Kernels.find name)
    in
    return
      {
        Wire.id;
        user;
        tenant;
        overlay;
        payload;
        tuned;
        trace;
        parent_span;
      })

let prop_req_roundtrip =
  QCheck.Test.make ~name:"requests survive encode-frame-deframe-decode"
    ~count:120 (QCheck.make gen_request) (fun req ->
      let payload = Wire.encode_req (Wire.Compile req) in
      let framed = Wire.frame payload in
      match Wire.deframe framed with
      | Error e -> QCheck.Test.fail_reportf "deframe: %s" (Wire.frame_error_to_string e)
      | Ok (p, _) -> (
        match Wire.decode_req p with
        | Error e -> QCheck.Test.fail_reportf "decode: %s" e
        | Ok (Wire.Compile r) ->
          (* bit-exact: re-encoding the decoded request reproduces the
             original frame byte for byte *)
          Wire.frame (Wire.encode_req (Wire.Compile r)) = framed
          && r.Wire.id = req.Wire.id
          && r.Wire.user = req.Wire.user
          && r.Wire.tenant = req.Wire.tenant
          && r.Wire.overlay = req.Wire.overlay
          && r.Wire.tuned = req.Wire.tuned
          && r.Wire.trace = req.Wire.trace
          && r.Wire.parent_span = req.Wire.parent_span
          && r.Wire.payload
             = Wire.Source
                 (match req.Wire.payload with
                 | Wire.Kernel k -> C_source.emit k
                 | Wire.Source s -> s)
        | Ok _ -> false))

(* Below the CRC: overwrite 1-3 bytes inside a compile request's
   payload and re-frame it, so the checksum matches and only the decoder
   stands between the bytes and the shard.  Every case either rejects,
   or decodes to a request that re-encodes to exactly the mutated bytes
   and that routing and the frontend take without raising. *)
let suite_payloads =
  lazy
    (Array.of_list
       (List.map
          (fun k ->
            Wire.encode_req
              (Wire.Compile
                 {
                   Wire.id = 17;
                   user = "u";
                   tenant = "acme";
                   overlay = "general";
                   payload = Wire.Kernel k;
                   tuned = false;
                   trace = "00ff00ff00ff00ff00ff00ff00ff00ff";
                   parent_span = 42;
                 }))
          Kernels.all))

let gen_mutation =
  QCheck.Gen.(
    let* i = int_bound (List.length Kernels.names - 1) in
    let n = String.length (Lazy.force suite_payloads).(i) in
    let* edits = list_size (int_range 1 3) (pair (int_bound (n - 1)) (int_bound 255)) in
    return (i, edits))

let prop_below_crc_mutations =
  QCheck.Test.make ~name:"below-CRC request mutations decode totally" ~count:10_000
    (QCheck.make
       ~print:(fun (i, edits) ->
         Printf.sprintf "kernel %d, edits [%s]" i
           (String.concat "; " (List.map (fun (p, c) -> Printf.sprintf "%d:%d" p c) edits)))
       gen_mutation)
    (fun (i, edits) ->
      let b = Bytes.of_string (Lazy.force suite_payloads).(i) in
      List.iter (fun (p, c) -> Bytes.set b p (Char.chr c)) edits;
      match Wire.deframe (Wire.frame (Bytes.to_string b)) with
      | Error e -> QCheck.Test.fail_reportf "deframe: %s" (Wire.frame_error_to_string e)
      | Ok (p, _) -> (
        match Wire.decode_req p with
        | Error _ -> true
        | Ok msg -> (
          Wire.encode_req msg = p
          &&
          match msg with
          | Wire.Compile { payload = Wire.Source src; overlay; tuned; _ } ->
            ignore (Wire.route_key ~overlay ~payload:(Wire.Source src) ~tuned);
            ignore (Overgen_frontend.Frontend.parse src);
            true
          | Wire.Compile { payload = Wire.Kernel _; _ } -> false
          | _ -> true)))

(* The v4 payload tag 0 — a marshalled [Ir.kernel] — is refused before
   any byte of the blob is interpreted. *)
let test_marshalled_ir_payload_rejected () =
  let module Codec = Overgen_store.Codec in
  let b = Buffer.create 256 in
  Codec.put_string b "net-req-v5";
  Codec.put_u8 b 0;
  Codec.put_u64 b 1L;
  List.iter (Codec.put_string b) [ "u"; ""; "general" ];
  Codec.put_u8 b 0;
  Codec.put_string b "";
  Codec.put_u64 b 0L;
  Codec.put_u8 b 0;
  Codec.put_string b
    (Codec.encode_marshal ~schema:"net-kernel-v1" (List.hd Kernels.all));
  match Wire.decode_req (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "marshalled-IR payload accepted"

(* [Kernel k] is shorthand for its emitted source all the way to the
   shard ring: both forms of a kernel route to one owner. *)
let test_route_key_kernel_is_source () =
  List.iter
    (fun (k : Ir.kernel) ->
      List.iter
        (fun tuned ->
          Alcotest.(check string)
            (Printf.sprintf "%s tuned=%b" k.name tuned)
            (Wire.route_key ~overlay:"general" ~payload:(Wire.Source (C_source.emit k)) ~tuned)
            (Wire.route_key ~overlay:"general" ~payload:(Wire.Kernel k) ~tuned))
        [ false; true ])
    Kernels.all

let gen_wire_error =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Wire.Unknown_overlay s) (string_size (int_range 0 8));
        return Wire.Queue_full;
        map (fun s -> Wire.Compile_error s) (string_size (int_range 0 20));
        map (fun s -> Wire.Transient_failure s) (string_size (int_range 0 20));
        return Wire.Deadline_exceeded;
        return Wire.Shutting_down;
        map (fun s -> Wire.Source_error s) (string_size (int_range 0 20));
      ])

let gen_resp =
  QCheck.Gen.(
    oneof
      [
        (let* id = int_range 0 1_000_000 in
         let* e = gen_wire_error in
         let* hit = bool in
         let* shard = int_range 0 64 in
         return
           (Wire.Result
              { id; outcome = Error e; cache_hit = hit; service_s = 0.5; shard }));
        (let* id = int_range 0 1_000_000 in
         let* owner = int_range 0 64 in
         return (Wire.Redirect { id; owner }));
        (let* shard = int_range 0 16 in
         return (Wire.Pong { shard; shards = 16 }));
        (let* served = int_range 0 100000 in
         return
           (Wire.Stats { shard = 1; served; hits = 3; misses = 4; warm_loaded = 5 }));
        return Wire.Bye;
      ])

let prop_resp_roundtrip =
  QCheck.Test.make ~name:"responses survive encode-frame-deframe-decode"
    ~count:120 (QCheck.make gen_resp) (fun resp ->
      let framed = Wire.frame (Wire.encode_resp resp) in
      match Wire.deframe framed with
      | Error _ -> false
      | Ok (p, _) -> (
        match Wire.decode_resp p with
        | Error e -> QCheck.Test.fail_reportf "decode: %s" e
        | Ok r -> Wire.frame (Wire.encode_resp r) = framed && r = resp))

let test_schema_rejected () =
  (* a response payload handed to the request decoder must be refused *)
  match Wire.decode_req (Wire.encode_resp Wire.Bye) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request decoder accepted a response schema"

(* ---------------- shard map ---------------- *)

let test_shard_map () =
  let m1 = Shard_map.make ~shards:4 in
  let m2 = Shard_map.make ~shards:4 in
  let keys = List.init 4000 (fun i -> Printf.sprintf "key-%d" i) in
  let hist = Array.make 4 0 in
  List.iter
    (fun k ->
      let o = Shard_map.owner m1 k in
      Alcotest.(check bool) "in range" true (o >= 0 && o < 4);
      Alcotest.(check int) "deterministic across instances" o
        (Shard_map.owner m2 k);
      hist.(o) <- hist.(o) + 1)
    keys;
  Array.iteri
    (fun s c ->
      if c = 0 then Alcotest.failf "shard %d owns no keys out of 4000" s)
    hist;
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Shard_map.make: shards < 1") (fun () ->
      ignore (Shard_map.make ~shards:0))

(* Every key's owner is part of the wire contract: clients and servers
   built from different revisions must agree on it, and a durable store
   only warm-starts the keys its shard still owns.  Digest the owners of
   1000 fixed keys for 1-4 shards against a pinned constant. *)
let test_shard_owner_pin () =
  let b = Buffer.create 4096 in
  for shards = 1 to 4 do
    let m = Shard_map.make ~shards in
    for i = 0 to 999 do
      Buffer.add_string b
        (string_of_int (Shard_map.owner m (Printf.sprintf "key-%d" i)))
    done
  done;
  Alcotest.(check string) "owner digest" "f002f933d50e2cbfbfee4d22c758d539"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------------- socket round trip ---------------- *)

let start_single_shard ?store_path () =
  let fd, port = Result.get_ok (Server.listen ~port:0 ()) in
  let config =
    {
      (Node.default_config ~cluster:[| { Node.host = "127.0.0.1"; port } |] ~me:0) with
      store_path;
    }
  in
  let node = must_node (Node.init ~setup config) in
  (Server.start ~node ~fd (), node, port)

let compile_req ?(trace = "") ?(tenant = "") ~id kernel =
  Wire.Compile
    {
      Wire.id;
      user = "u";
      tenant;
      overlay = "general";
      payload = Wire.Kernel kernel;
      tuned = false;
      trace;
      parent_span = 0;
    }

(* A connection the client has closed leaves nothing behind in the
   server: its reader thread's handle goes with it, so reconnecting cannot
   grow the server.  The live words reachable from it are the same after
   100 and after 1100 opened-and-closed connections. *)
let test_closed_conns_not_retained () =
  (* a backlog deep enough for the whole burst: the client loop outruns
     the acceptor, and an overflowing accept queue drops SYNs that the
     kernel only retries a second later *)
  let fd, port = Result.get_ok (Server.listen ~backlog:1024 ~port:0 ()) in
  let node =
    must_node
      (Node.init
         (Node.default_config ~cluster:[| { Node.host = "127.0.0.1"; port } |] ~me:0))
  in
  let server = Server.start ~node ~fd () in
  let open_and_close n =
    for _ = 1 to n do
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.close s
    done
  in
  let words () = Obj.reachable_words (Obj.repr server) in
  (* readers exit asynchronously: wait until the size holds still for
     five samples in a row *)
  let settled () =
    let rec go prev still tries =
      Unix.sleepf 0.02;
      let w = words () in
      if (w = prev && still >= 4) || tries = 0 then w
      else go w (if w = prev then still + 1 else 0) (tries - 1)
    in
    go (words ()) 0 500
  in
  open_and_close 100;
  let after_100 = settled () in
  open_and_close 1000;
  let after_1100 = settled () in
  Server.stop server;
  Node.shutdown node;
  Alcotest.(check int) "live words after 100 = after 1100 connections"
    after_100 after_1100

let test_socket_roundtrip () =
  let server, node, port = start_single_shard () in
  let c = Result.get_ok (Client.connect ~host:"127.0.0.1" ~port) in
  (match Client.rpc c Wire.Ping with
  | Ok (Wire.Pong { shard = 0; shards = 1 }) -> ()
  | Ok _ -> Alcotest.fail "wrong pong"
  | Error e -> Alcotest.failf "ping: %s" e);
  let kernel = List.hd Kernels.all in
  let first =
    match Client.rpc c (compile_req ~id:7 kernel) with
    | Ok (Wire.Result { id = 7; outcome = Ok schedules; cache_hit = false; _ }) ->
      Alcotest.(check bool) "schedules nonempty" true (schedules <> []);
      schedules
    | Ok (Wire.Result { outcome = Error e; _ }) ->
      Alcotest.failf "compile: %s" (Wire.wire_error_to_string e)
    | Ok _ -> Alcotest.fail "wrong response"
    | Error e -> Alcotest.failf "rpc: %s" e
  in
  (* same request again: a cache hit with the identical schedules *)
  (match Client.rpc c (compile_req ~id:8 kernel) with
  | Ok (Wire.Result { id = 8; outcome = Ok schedules; cache_hit = true; _ }) ->
    Alcotest.(check bool) "hit serves identical schedules" true
      (schedules = first)
  | Ok _ -> Alcotest.fail "expected a cache hit"
  | Error e -> Alcotest.failf "rpc: %s" e);
  (match Client.rpc c Wire.Stats_req with
  | Ok (Wire.Stats { served = 2; hits = 1; _ }) -> ()
  | Ok (Wire.Stats s) ->
    Alcotest.failf "stats: served %d hits %d" s.served s.hits
  | Ok _ | Error _ -> Alcotest.fail "stats rpc failed");
  Client.close c;
  Server.stop server;
  Node.shutdown node

let source_req ~id ?(tuned = false) src =
  Wire.Compile
    {
      Wire.id;
      user = "u";
      tenant = "";
      overlay = "general";
      payload = Wire.Source src;
      tuned;
      trace = "";
      parent_span = 0;
    }

(* A kernel submitted as pragma'd C source must come back compiled, and —
   because the IR shorthand travels as that same emitted source — the
   same kernel later submitted as IR must hit the entry the source
   compile populated. *)
let test_source_payload_over_socket () =
  let server, node, port = start_single_shard () in
  let c = Result.get_ok (Client.connect ~host:"127.0.0.1" ~port) in
  let kernel = List.hd Kernels.all in
  let src = C_source.emit kernel in
  let from_source =
    match Client.rpc c (source_req ~id:1 src) with
    | Ok (Wire.Result { id = 1; outcome = Ok schedules; cache_hit = false; _ }) ->
      Alcotest.(check bool) "schedules nonempty" true (schedules <> []);
      schedules
    | Ok (Wire.Result { outcome = Error e; _ }) ->
      Alcotest.failf "source compile: %s" (Wire.wire_error_to_string e)
    | Ok _ -> Alcotest.fail "wrong response"
    | Error e -> Alcotest.failf "rpc: %s" e
  in
  (* the IR form of the same kernel: a cache hit on the source's entry *)
  (match Client.rpc c (compile_req ~id:2 kernel) with
  | Ok (Wire.Result { id = 2; outcome = Ok schedules; cache_hit = true; _ }) ->
    Alcotest.(check bool) "IR form hits the source-populated entry" true
      (schedules = from_source)
  | Ok (Wire.Result { cache_hit = false; _ }) ->
    Alcotest.fail "IR form missed: source and IR diverged on the cache key"
  | Ok _ -> Alcotest.fail "wrong response"
  | Error e -> Alcotest.failf "rpc: %s" e);
  (* a malformed source is a deterministic, located, non-retryable error *)
  (match Client.rpc c (source_req ~id:3 "int broken(") with
  | Ok (Wire.Result { id = 3; outcome = Error (Wire.Source_error e); _ }) ->
    Alcotest.(check bool) "error is located" true
      (String.length e > 0 && e.[0] >= '1' && e.[0] <= '9');
    Alcotest.(check bool) "source errors are not retryable" false
      (Wire.retryable (Wire.Source_error e))
  | Ok (Wire.Result { outcome = Error e; _ }) ->
    Alcotest.failf "wrong error: %s" (Wire.wire_error_to_string e)
  | Ok _ -> Alcotest.fail "wrong response"
  | Error e -> Alcotest.failf "rpc: %s" e);
  Client.close c;
  Server.stop server;
  Node.shutdown node

let test_quiesced_answers_shutting_down () =
  let server, node, port = start_single_shard () in
  Node.quiesce node;
  let c = Result.get_ok (Client.connect ~host:"127.0.0.1" ~port) in
  (match Client.rpc c (compile_req ~id:1 (List.hd Kernels.all)) with
  | Ok (Wire.Result { id = 1; outcome = Error Wire.Shutting_down; _ }) -> ()
  | Ok _ -> Alcotest.fail "quiesced node accepted a compile"
  | Error e -> Alcotest.failf "rpc: %s" e);
  Client.close c;
  Server.stop server;
  Node.shutdown node

(* Two connections, both using client id 0 concurrently, for different
   kernels: server-side id namespacing must route each answer to its own
   connection. *)
let test_two_clients_same_id () =
  let server, node, port = start_single_shard () in
  let k0 = List.nth Kernels.all 0 and k1 = List.nth Kernels.all 1 in
  let digest schedules =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun (s : Overgen_scheduler.Schedule.t) -> string_of_int s.ii)
               schedules)))
  in
  let answer = Array.make 2 None in
  let client i kernel () =
    let c = Result.get_ok (Client.connect ~host:"127.0.0.1" ~port) in
    (match Client.rpc c (compile_req ~id:0 kernel) with
    | Ok (Wire.Result { id = 0; outcome = Ok schedules; _ }) ->
      answer.(i) <- Some (digest schedules)
    | Ok _ -> ()
    | Error _ -> ());
    Client.close c
  in
  let t0 = Thread.create (client 0 k0) () in
  let t1 = Thread.create (client 1 k1) () in
  Thread.join t0;
  Thread.join t1;
  (* reference answers straight from a service on the same registry *)
  let reference kernel =
    let svc = Service.create (Node.registry node) in
    let resps =
      Admission.run (Admission.create svc)
        [ { Service.id = 0; user = "r"; tenant = ""; overlay = "general";
            payload = Service.Kernel kernel; tuned = false; trace = "";
            deadline_s = None } ]
    in
    match resps with
    | [ { Service.result = Ok schedules; _ } ] -> digest schedules
    | _ -> Alcotest.fail "reference compile failed"
  in
  Alcotest.(check (option string)) "client 0 got kernel 0's answer"
    (Some (reference k0)) answer.(0);
  Alcotest.(check (option string)) "client 1 got kernel 1's answer"
    (Some (reference k1)) answer.(1);
  Server.stop server;
  Node.shutdown node

(* ---------------- faults: exactly one response per request ----------- *)

let test_serve_under_faults () =
  let server, node, port = start_single_shard () in
  let spec =
    Trace.spec ~seed:7 ~requests:150 ~users:4 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ] ()
  in
  let requests = Load_gen.of_trace (Trace.generate spec) in
  let summary =
    Fault.with_faults
      {
        Fault.default_config with
        seed = 3;
        rate = 0.04;
        points = [ Fault.Points.net_conn_drop; Fault.Points.net_frame_corrupt ];
      }
      (fun () ->
        Load_gen.run
          {
            Load_gen.cluster = [| { Node.host = "127.0.0.1"; port } |];
            requests;
            rate = 600.0;
            timeout_s = 60.0;
            misroute_every = None;
          })
  in
  Alcotest.(check int) "every request answered exactly once" 150
    summary.Load_gen.completed;
  Alcotest.(check int) "no deterministic failures" 0 summary.Load_gen.failed;
  Alcotest.(check bool) "faults actually dropped connections" true
    (summary.Load_gen.reconnects > 0);
  (* connection loss forced resends, yet the scheduler ran exactly once
     per distinct key: retried keys were served by the cache *)
  let stats = Cache.stats (Node.cache node) in
  Alcotest.(check int) "one compute per distinct key"
    (Trace.distinct_keys spec) stats.Cache.misses;
  Server.stop server;
  Node.shutdown node

(* ---------------- kill and restart: durable replay ---------------- *)

let test_reboot_replays_store () =
  let store_path = tmp_path "reboot" in
  Sys.remove store_path;
  let config =
    {
      (Node.default_config
         ~cluster:[| { Node.host = "127.0.0.1"; port = 0 } |]
         ~me:0)
      with
      store_path = Some store_path;
    }
  in
  let node = must_node (Node.init ~setup config) in
  let spec =
    Trace.spec ~seed:11 ~requests:60 ~users:3 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ] ()
  in
  let trace = Array.to_list (Load_gen.of_trace (Trace.generate spec)) in
  let drive node =
    let m = Mutex.create () in
    let got = ref 0 and ok = ref 0 and hits = ref 0 in
    List.iter
      (fun req ->
        let respond = function
          | Wire.Result { outcome; cache_hit; _ } ->
            Mutex.lock m;
            incr got;
            if outcome <> Error Wire.Shutting_down && Result.is_ok outcome then
              incr ok;
            if cache_hit then incr hits;
            Mutex.unlock m
          | _ -> ()
        in
        Node.handle_net node (Wire.Compile req) ~respond)
      trace;
    let deadline = Unix.gettimeofday () +. 60.0 in
    let rec wait () =
      Mutex.lock m;
      let g = !got in
      Mutex.unlock m;
      if g < List.length trace then
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "only %d/%d responses" g (List.length trace)
        else begin
          Thread.yield ();
          Unix.sleepf 0.005;
          wait ()
        end
    in
    wait ();
    (!ok, !hits)
  in
  let ok1, _ = drive node in
  Alcotest.(check int) "first run all ok" 60 ok1;
  (* crash-restart: reboot tears the node down and replays the store *)
  Node.shutdown node;
  let node2 = must_node (Node.init ~setup config) in
  Alcotest.(check bool) "cache warm-started from the store" true
    (Cache.warm_loaded (Node.cache node2) > 0);
  Alcotest.(check (list string))
    "overlays restored without regeneration" [ "general" ]
    (Registry.names (Node.registry node2));
  let ok2, hits2 = drive node2 in
  Alcotest.(check int) "replay all ok" 60 ok2;
  Alcotest.(check int) "replayed traffic is 100% cache hits" 60 hits2;
  Node.shutdown node2;
  Sys.remove store_path

(* ---------------- misrouted compiles: redirect ---------------- *)

(* A misrouted compile is answered before [handle_net] returns, with a
   [Redirect] to its owner under the client's id.  The client re-sends
   it with its own trace context, and shard 0's flight-recorder event
   for the redirect carries that context too. *)
let test_redirect_preserves_trace () =
  let cluster = Array.make 2 { Node.host = "127.0.0.1"; port = 0 } in
  let node = must_node (Node.init ~setup (Node.default_config ~cluster ~me:0)) in
  let mk kernel =
    {
      Wire.id = 1;
      user = "u";
      tenant = "";
      overlay = "general";
      payload = Wire.Kernel kernel;
      tuned = false;
      trace = "00ff00ff00ff00ff00ff00ff00ff00ff";
      parent_span = 42;
    }
  in
  let req =
    match
      List.find_opt (fun k -> Node.owner_of node (mk k) = 1) Kernels.all
    with
    | Some k -> mk k
    | None -> Alcotest.fail "no kernel hashes to shard 1"
  in
  let got = ref None in
  Node.handle_net node (Wire.Compile req) ~respond:(fun r -> got := Some r);
  (match !got with
  | Some (Wire.Redirect { id = 1; owner = 1 }) -> ()
  | Some _ -> Alcotest.fail "expected a Redirect to shard 1"
  | None -> Alcotest.fail "misrouted request not answered synchronously");
  let module Log = Overgen_obs.Obs.Log in
  Alcotest.(check bool) "redirect event keeps the trace id" true
    (List.exists
       (fun (e : Log.event) ->
         e.name = "shard_redirect" && e.trace = req.Wire.trace
         && List.assoc_opt "owner" e.attrs = Some "1")
       (Log.recent ~max:50 Log.default));
  Node.shutdown node

(* Two shards on loopback, every k-th request sent to the shard that
   does not own it.  Each misrouted request must come back as exactly
   one [Redirect], which the load generator follows to the owner: every
   request is answered once, the shards' redirect counters add up to the
   misrouted count, and the two shards together admit each request
   exactly once. *)
let test_misroutes_redirect_over_sockets () =
  let module Metrics = Overgen_obs.Metrics in
  (* bind both listeners first: the cluster is built from the actual ports *)
  let listeners =
    Array.init 2 (fun _ -> Result.get_ok (Server.listen ~port:0 ()))
  in
  let cluster =
    Array.map (fun (_, port) -> { Node.host = "127.0.0.1"; port }) listeners
  in
  let nodes =
    Array.init 2 (fun me ->
        must_node (Node.init ~setup (Node.default_config ~cluster ~me)))
  in
  let servers =
    Array.mapi (fun i node -> Server.start ~node ~fd:(fst listeners.(i)) ()) nodes
  in
  let n = 120 and k = 5 in
  let spec =
    Trace.spec ~seed:9 ~requests:n ~users:4 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ] ()
  in
  let summary =
    Load_gen.run
      {
        Load_gen.cluster;
        requests = Load_gen.of_trace (Trace.generate spec);
        rate = 600.0;
        timeout_s = 60.0;
        misroute_every = Some k;
      }
  in
  let total name =
    Array.fold_left
      (fun acc node ->
        acc + Metrics.counter_value (Metrics.counter (Node.metrics node) name))
      0 nodes
  in
  let redirects = total "overgen_net_redirects_total" in
  let served = total "overgen_net_served" in
  Array.iter Server.stop servers;
  Array.iter Node.shutdown nodes;
  (* Load_gen misroutes indices 0, k, 2k, ... *)
  let misrouted = (n + k - 1) / k in
  Alcotest.(check int) "every request answered exactly once" n
    summary.Load_gen.completed;
  Alcotest.(check int) "no failures" 0 summary.Load_gen.failed;
  Alcotest.(check int) "one redirect per misrouted request" misrouted
    summary.Load_gen.redirects;
  Alcotest.(check int) "shards counted the same redirects" misrouted redirects;
  Alcotest.(check int) "each request admitted once, by its owner" n served

(* ---------------- previous-generation payloads ---------------- *)

(* The envelope schema tags are part of the payload: a frame whose
   payload announces the previous schema generation must be refused by
   the decoder (the frame-level version byte is covered separately in
   {!test_version_and_corruption_rejected}). *)
let test_old_schema_payload_rejected () =
  let patch_schema ~tag payload =
    let lt = String.length tag in
    let rec find i =
      if i + lt > String.length payload then
        Alcotest.failf "schema tag %s not found in payload" tag
      else if String.sub payload i lt = tag then i
      else find (i + 1)
    in
    let i = find 0 in
    let b = Bytes.of_string payload in
    (* "...-v5" -> "...-v4": same length, so the length prefix still
       matches and only the schema comparison can reject it — a v4-era
       frame body must decode-reject against the v5 node *)
    Bytes.set b (i + lt - 1) '4';
    Bytes.to_string b
  in
  let req_payload = Wire.encode_req (compile_req ~id:3 (List.hd Kernels.all)) in
  (match Wire.decode_req (patch_schema ~tag:"net-req-v5" req_payload) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "v4 request schema accepted");
  match Wire.decode_resp (patch_schema ~tag:"net-resp-v5" (Wire.encode_resp Wire.Bye)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "v4 response schema accepted"

(* ---------------- cross-process trace merge ---------------- *)

module Obs = Overgen_obs.Obs

(* Two process lanes (a client and a shard) sharing one trace id must
   stitch into a single valid Chrome trace with no orphan parents. *)
let test_merged_trace_validates () =
  Obs.enable ();
  Obs.Span.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.Span.reset ())
  @@ fun () ->
  let rng = Overgen_util.Rng.of_string "test-net-merge" in
  let trace = Obs.Span.fresh_trace rng in
  Obs.Span.with_trace trace (fun () ->
      Obs.Span.with_span "client_send" ~attrs:[ ("id", "0") ] (fun () -> ()));
  let client_lane = Obs.Export.to_jsonl ~pid:100 (Obs.Span.spans ()) in
  Obs.Span.reset ();
  Obs.Span.with_trace trace (fun () ->
      Obs.Span.with_span "dispatch" (fun () ->
          Obs.Span.with_span "service_process" (fun () -> ())));
  let shard_lane = Obs.Export.to_jsonl ~pid:0 (Obs.Span.spans ()) in
  let lane text =
    match Obs.Export.parse_jsonl text with
    | Ok spans -> spans
    | Error e -> Alcotest.failf "parse_jsonl: %s" e
  in
  let all = lane client_lane @ lane shard_lane in
  Alcotest.(check int) "three spans across two lanes" 3 (List.length all);
  Alcotest.(check (list (pair int int)))
    "no orphan parents" [] (Obs.Export.orphans all);
  List.iter
    (fun ((_, s) : int * Obs.Span.span) ->
      Alcotest.(check string) "every span carries the trace id" trace
        s.Obs.Span.trace)
    all;
  let merged =
    Obs.Export.merge_chrome ~names:[ (100, "client"); (0, "shard-0") ] all
  in
  match Obs.Export.validate_json merged with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged trace invalid: %s" e

(* ---------------- ops plane through the codec ---------------- *)

(* Each scrape request is encoded and decoded, handled by a node, and its
   reply encoded and decoded back, as one socket round trip would.  The
   metrics dump is the shard's registry in Prometheus text; the quiesced
   gauge, the health report and the flight recorder all show a quiesce. *)
let test_ops_plane_codec () =
  let node =
    must_node
      (Node.init
         (Node.default_config
            ~cluster:[| { Node.host = "127.0.0.1"; port = 0 } |]
            ~me:0))
  in
  let ask msg =
    let msg' =
      match Wire.decode_req (Wire.encode_req msg) with
      | Ok m -> m
      | Error e -> Alcotest.failf "decode_req: %s" e
    in
    Alcotest.(check bool) "request round-trips" true (msg' = msg);
    let got = ref None in
    Node.handle_net node msg' ~respond:(fun r -> got := Some r);
    match !got with
    | None -> Alcotest.fail "scrape not answered before handle_net returned"
    | Some r -> (
      match Wire.decode_resp (Wire.encode_resp r) with
      | Ok r' ->
        Alcotest.(check bool) "response round-trips" true (r' = r);
        r'
      | Error e -> Alcotest.failf "decode_resp: %s" e)
  in
  let has text line =
    List.mem line (String.split_on_char '\n' text)
  in
  let dump () =
    match ask Wire.Metrics_req with
    | Wire.Metrics_dump { shard = 0; text } -> text
    | _ -> Alcotest.fail "expected a Metrics_dump from shard 0"
  in
  let text = dump () in
  List.iter
    (fun line -> Alcotest.(check bool) line true (has text line))
    [ "# TYPE overgen_net_quiesced gauge"; "overgen_net_quiesced 0";
      "# TYPE overgen_net_cache_entries gauge"; "overgen_net_cache_entries 0" ];
  (match ask Wire.Quiesce with
  | Wire.Bye -> ()
  | _ -> Alcotest.fail "expected Bye to a quiesce");
  Alcotest.(check bool) "quiesced gauge reads 1" true
    (has (dump ()) "overgen_net_quiesced 1");
  (match ask Wire.Health_req with
  | Wire.Health { shard = 0; quiesced = true; served = 0; inflight = 0; _ } -> ()
  | _ -> Alcotest.fail "expected a quiesced, idle Health from shard 0");
  (match ask (Wire.Recent_events_req { max = 1 }) with
  | Wire.Events { shard = 0; events = [ e ] } ->
    let module Export = Overgen_obs.Export in
    Alcotest.(check bool) "newest event is the quiesce" true
      (match Export.parse_json e with
       | Ok j -> Export.member "name" j = Some (Export.Str "quiesce")
       | Error _ -> false)
  | _ -> Alcotest.fail "expected one event from shard 0");
  Node.shutdown node

(* Every wire error survives the response codec, prints, and is retryable
   exactly when resending can change the answer. *)
let test_wire_errors_round_trip () =
  List.iter
    (fun (e, retry) ->
      let r =
        Wire.Result
          { id = 7; outcome = Error e; cache_hit = false; service_s = 0.5;
            shard = 1 }
      in
      let name = Wire.wire_error_to_string e in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Wire.decode_resp (Wire.encode_resp r) = Ok r);
      Alcotest.(check bool) (name ^ " retryable") retry (Wire.retryable e))
    [ (Wire.Unknown_overlay "x", false); (Wire.Queue_full, true);
      (Wire.Compile_error "c", false); (Wire.Transient_failure "t", true);
      (Wire.Deadline_exceeded, true); (Wire.Shutting_down, true);
      (Wire.Source_error "1:2: s", false); (Wire.Quota_exceeded, false) ]

(* [--cluster] parsing: host:port pairs in order, and the malformed forms
   rejected with an error. *)
let test_parse_cluster () =
  (match Node.parse_cluster "127.0.0.1:7001,shard-b:80" with
  | Ok [| a; b |] ->
    Alcotest.(check (pair string int)) "first" ("127.0.0.1", 7001) (a.host, a.port);
    Alcotest.(check (pair string int)) "second" ("shard-b", 80) (b.host, b.port)
  | _ -> Alcotest.fail "want two peers");
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (Result.is_error (Node.parse_cluster s)))
    [ ""; "nohost"; ":80"; "h:99999"; "h:80,h" ]

(* One shard over loopback with tracing on: every request carries a trace
   id, so the load generator opens a send span and the server a decode
   span.  Stopping the server writes its flight recorder to the path it
   was given, and the summary's hits leave a cold miss per distinct key. *)
let test_traced_run_over_socket () =
  let fd, port = Result.get_ok (Server.listen ~port:0 ()) in
  let cluster = [| { Node.host = "127.0.0.1"; port } |] in
  let node = must_node (Node.init ~setup (Node.default_config ~cluster ~me:0)) in
  let flight = tmp_path "flight" in
  Sys.remove flight;
  let server = Server.start ~flight_out:flight ~node ~fd () in
  let spec =
    Trace.spec ~seed:4 ~requests:10 ~users:2 ~working_set:2
      ~overlays:[ ("general", Kernels.all) ] ()
  in
  let requests =
    Array.mapi
      (fun i (r : Wire.request) -> { r with trace = Printf.sprintf "%032x" (i + 1) })
      (Load_gen.of_trace (Trace.generate spec))
  in
  let config =
    { Load_gen.cluster; requests; rate = 200.0; timeout_s = 60.0;
      misroute_every = None }
  in
  let module Obs = Overgen_obs.Obs in
  Obs.enable ();
  let summary = Fun.protect ~finally:Obs.disable (fun () -> Load_gen.run config) in
  Server.stop server;
  Node.shutdown node;
  Alcotest.(check int) "all answered" 10 summary.Load_gen.completed;
  Alcotest.(check bool) "flight recorder written" true (Sys.file_exists flight);
  Sys.remove flight;
  Alcotest.(check bool) "a cold miss per distinct key" true
    (summary.hits <= summary.completed - Trace.distinct_keys spec)

let tests =
  [
    ("frame round-trip", `Quick, test_frame_roundtrip);
    ("truncated frames rejected", `Quick, test_truncated_rejected);
    ("version/corruption rejected", `Quick, test_version_and_corruption_rejected);
    ("frame CRC checked in place", `Quick, test_crc_in_place);
    QCheck_alcotest.to_alcotest prop_req_roundtrip;
    QCheck_alcotest.to_alcotest prop_resp_roundtrip;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |]) prop_below_crc_mutations;
    ("marshalled-IR payload rejected", `Quick, test_marshalled_ir_payload_rejected);
    ("route key: Kernel = emitted Source", `Quick, test_route_key_kernel_is_source);
    ("schema mismatch rejected", `Quick, test_schema_rejected);
    ("shard map", `Quick, test_shard_map);
    ("shard owners pinned", `Quick, test_shard_owner_pin);
    ("closed connections not retained", `Quick, test_closed_conns_not_retained);
    ("socket round trip", `Quick, test_socket_roundtrip);
    ("source payload over socket", `Quick, test_source_payload_over_socket);
    ("quiesced answers shutting-down", `Quick, test_quiesced_answers_shutting_down);
    ("two clients share id 0", `Quick, test_two_clients_same_id);
    ("exactly-once under faults", `Quick, test_serve_under_faults);
    ("kill-and-restart replays store", `Quick, test_reboot_replays_store);
    ("redirect preserves trace context", `Quick, test_redirect_preserves_trace);
    ("misroutes redirect over sockets", `Quick, test_misroutes_redirect_over_sockets);
    ("previous-generation schemas rejected", `Quick, test_old_schema_payload_rejected);
    ("merged two-lane trace validates", `Quick, test_merged_trace_validates);
    ("ops plane through the codec", `Quick, test_ops_plane_codec);
    ("wire errors round-trip", `Quick, test_wire_errors_round_trip);
    ("cluster parsing", `Quick, test_parse_cluster);
    ("traced run over a socket", `Quick, test_traced_run_over_socket);
  ]
