(* The durable artifact store: CRC32 vectors, codec framing and schema
   rejection, log roundtrips and reopen, crash recovery (torn tails,
   checksum corruption — both organic and fault-injected), offline
   verification, compaction, and the write-through/warm-start behaviour of
   the schedule cache, the overlay registry, and the compile service on
   top of it. *)

open Overgen_workload
module Store = Overgen_store.Store
module Crc32 = Overgen_store.Crc32
module Codec = Overgen_store.Codec
module Cache = Overgen_service.Cache
module Registry = Overgen_service.Registry
module Service = Overgen_service.Service
module Admission = Overgen_fleet.Admission
module Trace = Overgen_service.Trace
module Fault = Overgen_fault.Fault
module Serial = Overgen_adg.Serial
module Obs = Overgen_obs.Obs

let model () = Models.trained 21

let general =
  lazy
    (match Overgen.general ~model:(model ()) Kernels.all with
    | Ok o -> o
    | Error e -> failwith ("general overlay: " ^ e))

(* every test works on a throwaway file removed afterwards *)
let with_path f =
  let path = Filename.temp_file "overgen-test-store" ".store" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".compact" ])
    (fun () -> f path)

let open_ok path =
  match Store.open_ ~path () with
  | Ok s -> s
  | Error e -> Alcotest.failf "open %s: %s" path e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ---------------- crc32 + codec ---------------- *)

let test_crc32 () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int32) "check vector" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check int32) "windowed = whole"
    (Crc32.string "123456789")
    (Crc32.string ~off:3 ~len:9 "xyz123456789xyz");
  Alcotest.(check bool) "one flipped bit changes the digest" true
    (Crc32.string "123456789" <> Crc32.string "123456788")

(* The CRC straight from its definition: reflected, polynomial
   0xEDB88320, one bit at a time, initial and final xor 0xFFFFFFFF. *)
let crc32_bitwise ?(off = 0) ?len s =
  let len = Option.value len ~default:(String.length s - off) in
  let c = ref 0xFFFF_FFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

let test_crc32_bounds () =
  let bad off len =
    Alcotest.check_raises
      (Printf.sprintf "off=%d len=%d" off len)
      (Invalid_argument "Crc32.string: range out of bounds")
      (fun () -> ignore (Crc32.string ~off ~len "0123456789"))
  in
  bad (-1) 2;
  bad 0 (-1);
  bad 3 8;
  bad 11 0;
  Alcotest.(check int32) "empty range at the end" 0l (Crc32.string ~off:10 ~len:0 "0123456789");
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "sub off=%d len=%d" off len)
        (Invalid_argument "Crc32.sub: range out of bounds")
        (fun () -> ignore (Crc32.sub "0123456789" off len)))
    [ (-1, 2); (0, -1); (3, 8); (11, 0); (1, max_int) ];
  Alcotest.(check int) "sub: empty range at the end" 0 (Crc32.sub "0123456789" 10 0)

(* The sliced CRC against the bit-serial one: every start alignment 0-7
   and every tail length 0-7 (the bytes after the last 8-byte step), the
   empty range and the whole string. *)
let prop_crc32_bitwise =
  QCheck.Test.make ~name:"Crc32.string = bit-serial CRC at every alignment and tail"
    ~count:200 QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let n = String.length s in
      let agree ?off ?len () =
        let want = crc32_bitwise ?off ?len s in
        Crc32.string ?off ?len s = want
        &&
        let off = Option.value off ~default:0 in
        Crc32.sub s off (Option.value len ~default:(n - off)) = Int32.to_int want land 0xFFFFFFFF
      in
      agree () && agree ~off:0 ~len:0 ()
      && List.for_all
           (fun off ->
             let room = n - off in
             room < 0
             || List.for_all
                  (fun tail ->
                    room < tail
                    || List.for_all
                         (fun len -> len > room || agree ~off ~len ())
                         [ tail; tail + 8; tail + ((room - tail) / 8 * 8) ])
                  [ 0; 1; 2; 3; 4; 5; 6; 7 ])
           [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* A store file written through [Store.put] carries, per record, the
   bit-serial CRC of its payload, and reopening reads every value back
   byte for byte without rewriting the file. *)
let test_store_record_crcs () =
  with_path @@ fun path ->
  let values =
    List.init 24 (fun i ->
        (Printf.sprintf "k%d" i, String.init (i * 37) (fun j -> Char.chr ((i + (j * 7)) land 0xFF))))
  in
  let s = open_ok path in
  List.iter (fun (key, v) -> Store.put s ~ns:"crc" ~key v) values;
  Store.close s;
  let contents = read_file path in
  let pos = ref (String.index contents '\n' + 1) and records = ref 0 in
  while !pos < String.length contents do
    let plen = Codec.get_u32 contents pos in
    let crc = Int32.of_int (Codec.get_u32 contents pos) in
    Alcotest.(check int32)
      (Printf.sprintf "record %d CRC" !records)
      (crc32_bitwise ~off:!pos ~len:plen contents)
      crc;
    pos := !pos + plen;
    incr records
  done;
  Alcotest.(check int) "one record per put" (List.length values) !records;
  let s = open_ok path in
  List.iter
    (fun (key, v) ->
      Alcotest.(check (option string)) key (Some v) (Store.get s ~ns:"crc" ~key))
    values;
  Store.close s;
  Alcotest.(check bool) "reopen leaves the file byte-identical" true
    (String.equal contents (read_file path))

let test_codec_framing () =
  let b = Buffer.create 64 in
  Codec.put_u8 b 7;
  Codec.put_u32 b 0xDEADBEEF;
  Codec.put_string b "";
  Codec.put_string b "hello";
  let s = Buffer.contents b in
  let pos = ref 0 in
  Alcotest.(check int) "u8" 7 (Codec.get_u8 s pos);
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.get_u32 s pos);
  Alcotest.(check string) "empty string" "" (Codec.get_string s pos);
  Alcotest.(check string) "string" "hello" (Codec.get_string s pos);
  Alcotest.(check int) "consumed exactly" (String.length s) !pos;
  Alcotest.check_raises "short buffer" Codec.Truncated (fun () ->
      ignore (Codec.get_u32 "ab" (ref 0)))

let test_codec_schema_rejection () =
  let blob = Codec.encode_marshal ~schema:"thing-v1" (1, "x") in
  (match (Codec.decode_marshal ~schema:"thing-v1" blob : (int * string, string) result) with
  | Ok v -> Alcotest.(check (pair int string)) "roundtrip" (1, "x") v
  | Error e -> Alcotest.failf "roundtrip failed: %s" e);
  (match (Codec.decode_marshal ~schema:"thing-v2" blob : (int * string, string) result) with
  | Ok _ -> Alcotest.fail "old schema must be rejected, not misparsed"
  | Error _ -> ());
  (match (Codec.decode_marshal ~schema:"thing-v1" "garbage" : (int * string, string) result) with
  | Ok _ -> Alcotest.fail "garbage must be rejected"
  | Error _ -> ())

let test_codec_sys_roundtrip () =
  let sys = Overgen_adg.Builder.general_overlay () in
  match Codec.decode_sys (Codec.encode_sys sys) with
  | Ok sys' ->
    Alcotest.(check string) "same structure" (Serial.fingerprint sys)
      (Serial.fingerprint sys')
  | Error e -> Alcotest.failf "decode_sys: %s" e

(* ---------------- log roundtrip + reopen ---------------- *)

let test_roundtrip_and_reopen () =
  with_path @@ fun path ->
  let s = open_ok path in
  Store.put s ~ns:"a" ~key:"k1" "v1";
  Store.put s ~ns:"a" ~key:"k2" "v2";
  Store.put s ~ns:"b" ~key:"k1" "other-ns";
  Store.put s ~ns:"a" ~key:"k1" "v1'";
  Store.delete s ~ns:"a" ~key:"k2";
  Alcotest.(check (option string)) "last write wins" (Some "v1'")
    (Store.get s ~ns:"a" ~key:"k1");
  Alcotest.(check (option string)) "deleted" None (Store.get s ~ns:"a" ~key:"k2");
  Alcotest.(check bool) "mem" true (Store.get s ~ns:"b" ~key:"k1" <> None);
  Alcotest.(check int) "live" 2 (Store.length s);
  Alcotest.(check (list (pair string string)))
    "rewrite moved k1 to the end of write order"
    [ ("k1", "v1'") ]
    (Store.bindings s ~ns:"a");
  Store.close s;
  Alcotest.check_raises "closed store raises" (Failure "Store: store is closed")
    (fun () -> ignore (Store.get s ~ns:"a" ~key:"k1"));
  let s = open_ok path in
  let st = Store.last_open_stats s in
  Alcotest.(check int) "5 records scanned" 5 st.records;
  Alcotest.(check int) "2 live after replay" 2 st.live;
  Alcotest.(check int) "clean log" 0 st.truncated_bytes;
  Alcotest.(check (option string)) "persisted across reopen" (Some "v1'")
    (Store.get s ~ns:"a" ~key:"k1");
  Alcotest.(check (list (pair string int))) "namespaces"
    [ ("a", 1); ("b", 1) ]
    (Store.namespaces s);
  Store.close s

let test_empty_file_is_fresh_store () =
  with_path @@ fun path ->
  (* with_path's temp file exists and is empty — exactly the case *)
  Alcotest.(check int) "size 0" 0 (Unix.stat path).Unix.st_size;
  let s = open_ok path in
  Store.put s ~ns:"n" ~key:"k" "v";
  Store.close s

(* ---------------- crash recovery ---------------- *)

(* simulate a crash mid-append: chop [cut] bytes off the end of the log *)
let torn_tail path cut =
  let contents = read_file path in
  write_file path (String.sub contents 0 (String.length contents - cut))

let test_torn_tail_truncated () =
  with_path @@ fun path ->
  let s = open_ok path in
  Store.put s ~ns:"n" ~key:"a" "aaaa";
  Store.put s ~ns:"n" ~key:"b" "bbbb";
  Store.put s ~ns:"n" ~key:"c" "cccc";
  Store.close s;
  let full = String.length (read_file path) in
  torn_tail path 3;
  let s = open_ok path in
  let st = Store.last_open_stats s in
  Alcotest.(check int) "two records survive" 2 st.records;
  Alcotest.(check bool) "loss reported" true (st.truncated_bytes > 0);
  Alcotest.(check (option string)) "a intact" (Some "aaaa")
    (Store.get s ~ns:"n" ~key:"a");
  Alcotest.(check (option string)) "b intact" (Some "bbbb")
    (Store.get s ~ns:"n" ~key:"b");
  Alcotest.(check (option string)) "c lost" None (Store.get s ~ns:"n" ~key:"c");
  (* recovery repaired the file: appends go to a clean boundary *)
  Store.put s ~ns:"n" ~key:"d" "dddd";
  Store.close s;
  Alcotest.(check bool) "file shrank then grew cleanly" true
    (String.length (read_file path) < full + 4);
  let s = open_ok path in
  Alcotest.(check int) "clean after repair" 0
    (Store.last_open_stats s).truncated_bytes;
  Alcotest.(check (option string)) "post-repair append survived" (Some "dddd")
    (Store.get s ~ns:"n" ~key:"d");
  Store.close s

let test_midfile_corruption_detected () =
  with_path @@ fun path ->
  let s = open_ok path in
  Store.put s ~ns:"n" ~key:"a" "aaaa";
  let before_b = Store.file_bytes s in
  Store.put s ~ns:"n" ~key:"b" "bbbb";
  Store.put s ~ns:"n" ~key:"c" "cccc";
  Store.close s;
  (* flip one payload byte inside record b *)
  let contents = read_file path in
  let bytes = Bytes.of_string contents in
  let i = before_b + 12 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x01));
  write_file path (Bytes.to_string bytes);
  (match Store.verify ~path with
  | Ok _ -> Alcotest.fail "verify must detect the corruption"
  | Error { Store.offset; reason; intact_records } ->
    Alcotest.(check int) "offset of the damaged record" before_b offset;
    Alcotest.(check string) "reason" "checksum mismatch" reason;
    Alcotest.(check int) "one intact record precedes it" 1 intact_records);
  (* recovery keeps everything before the damage, drops the rest *)
  let s = open_ok path in
  Alcotest.(check (option string)) "a survives" (Some "aaaa")
    (Store.get s ~ns:"n" ~key:"a");
  Alcotest.(check (option string)) "b dropped" None (Store.get s ~ns:"n" ~key:"b");
  Alcotest.(check (option string)) "c unreachable" None
    (Store.get s ~ns:"n" ~key:"c");
  Store.close s;
  Alcotest.(check bool) "verify passes after repair" true
    (Result.is_ok (Store.verify ~path))

let test_incompatible_header_rejected () =
  with_path @@ fun path ->
  write_file path "overgen-store v999\n";
  (match Store.open_ ~path () with
  | Ok _ -> Alcotest.fail "wrong version must not open"
  | Error _ -> ());
  match Store.verify ~path with
  | Ok _ -> Alcotest.fail "wrong version must not verify"
  | Error { Store.offset; _ } -> Alcotest.(check int) "offset 0" 0 offset

let test_verify_clean () =
  with_path @@ fun path ->
  let s = open_ok path in
  Store.put s ~ns:"n" ~key:"a" "x";
  Store.put s ~ns:"n" ~key:"a" "y";
  Store.close s;
  match Store.verify ~path with
  | Ok st ->
    Alcotest.(check int) "records" 2 st.records;
    Alcotest.(check int) "live" 1 st.live
  | Error { Store.offset; reason; _ } ->
    Alcotest.failf "clean store failed verify at %d: %s" offset reason

(* ---------------- fault injection ---------------- *)

(* Arm only the torn-write point at rate 1: the first put dies mid-record.
   Transient leaves a torn payload, Deterministic a full record with a
   flipped byte; either way the store must reopen with only the intact
   records and `verify` must name the damage. *)
let injected_crash ~transient =
  with_path @@ fun path ->
  let s = open_ok path in
  Store.put s ~ns:"n" ~key:"good" "before the crash";
  let cfg =
    {
      Fault.default_config with
      rate = 1.0;
      transient_fraction = (if transient then 1.0 else 0.0);
      points = [ Fault.Points.store_torn ];
    }
  in
  (match
     Fault.with_faults cfg (fun () -> Store.put s ~ns:"n" ~key:"doomed" "lost")
   with
  | () -> Alcotest.fail "injection did not fire"
  | exception Fault.Injected _ -> ());
  (* the process "crashes" here: the torn/corrupt record is on disk.
     Close without compacting and reopen like a restarted process. *)
  Store.close s;
  (match Store.verify ~path with
  | Ok _ -> Alcotest.fail "verify must flag the injected damage"
  | Error { Store.reason; intact_records; _ } ->
    Alcotest.(check int) "good record intact" 1 intact_records;
    Alcotest.(check string) "damage kind"
      (if transient then "torn record payload" else "checksum mismatch")
      reason);
  let s = open_ok path in
  Alcotest.(check bool) "recovery dropped bytes" true
    ((Store.last_open_stats s).truncated_bytes > 0);
  Alcotest.(check (option string)) "prior record survives"
    (Some "before the crash")
    (Store.get s ~ns:"n" ~key:"good");
  Alcotest.(check (option string)) "torn record lost" None
    (Store.get s ~ns:"n" ~key:"doomed");
  Store.close s

let test_fault_torn_write () = injected_crash ~transient:true
let test_fault_corrupt_write () = injected_crash ~transient:false

let test_fault_retry_after_injection () =
  (* in-process retry: a failed append must not shadow later ones *)
  with_path @@ fun path ->
  let s = open_ok path in
  let cfg =
    {
      Fault.default_config with
      rate = 1.0;
      transient_fraction = 1.0;
      points = [ Fault.Points.store_torn ];
    }
  in
  Fault.arm cfg;
  (try Store.put s ~ns:"n" ~key:"k" "first try" with Fault.Injected _ -> ());
  Fault.disarm ();
  Store.put s ~ns:"n" ~key:"k" "second try";
  Alcotest.(check (option string)) "retry wins" (Some "second try")
    (Store.get s ~ns:"n" ~key:"k");
  Store.close s;
  let s = open_ok path in
  Alcotest.(check int) "no damage on disk" 0
    (Store.last_open_stats s).truncated_bytes;
  Alcotest.(check (option string)) "retry persisted" (Some "second try")
    (Store.get s ~ns:"n" ~key:"k");
  Store.close s

(* ---------------- compaction ---------------- *)

let test_compact () =
  with_path @@ fun path ->
  let s = open_ok path in
  for i = 1 to 50 do
    Store.put s ~ns:"n" ~key:"hot" (Printf.sprintf "version %d" i)
  done;
  Store.put s ~ns:"n" ~key:"cold" "stable";
  Store.delete s ~ns:"n" ~key:"cold";
  let before = Store.file_bytes s in
  Alcotest.(check bool) "dead bytes accumulated" true
    (Store.live_bytes s < before);
  Store.compact s;
  Alcotest.(check bool) "file shrank" true (Store.file_bytes s < before);
  Alcotest.(check int) "live bytes = file payload" (Store.live_bytes s)
    (Store.file_bytes s - String.length "overgen-store v1\n");
  Alcotest.(check (option string)) "data preserved" (Some "version 50")
    (Store.get s ~ns:"n" ~key:"hot");
  Alcotest.(check (option string)) "tombstone gone for good" None
    (Store.get s ~ns:"n" ~key:"cold");
  (* appends after compaction land correctly *)
  Store.put s ~ns:"n" ~key:"new" "post-compact";
  Store.close s;
  let s = open_ok path in
  Alcotest.(check int) "compacted log replays to 2 records" 2
    (Store.last_open_stats s).records;
  Alcotest.(check (option string)) "post-compact append persisted"
    (Some "post-compact")
    (Store.get s ~ns:"n" ~key:"new");
  Store.close s;
  Alcotest.(check bool) "verify after compact" true
    (Result.is_ok (Store.verify ~path))

(* Every fsync is counted, and scan-on-open, appends and compaction issue
   a fixed number of them whatever the record count: none per record. *)
let test_fsync_count () =
  with_path @@ fun path ->
  let fsyncs =
    Obs.Metrics.counter Obs.Metrics.default "overgen_store_fsyncs_total"
  in
  let fsyncs_of what expected f =
    let n0 = Obs.Metrics.counter_value fsyncs in
    Obs.enable ();
    let r = Fun.protect ~finally:Obs.disable f in
    Alcotest.(check int) (what ^ " fsyncs") expected
      (Obs.Metrics.counter_value fsyncs - n0);
    r
  in
  let s = fsyncs_of "open of a fresh log" 0 (fun () -> open_ok path) in
  fsyncs_of "200 appends" 0 (fun () ->
      for i = 1 to 200 do
        Store.put s ~ns:"n" ~key:(string_of_int (i mod 50)) "v"
      done);
  fsyncs_of "sync" 1 (fun () -> Store.sync s);
  fsyncs_of "close" 1 (fun () -> Store.close s);
  let s = fsyncs_of "scan-on-open of 200 records" 0 (fun () -> open_ok path) in
  Alcotest.(check int) "records scanned" 200 (Store.last_open_stats s).records;
  fsyncs_of "compaction to 50 live records" 1 (fun () -> Store.compact s);
  fsyncs_of "close after compaction" 1 (fun () -> Store.close s)

(* ---------------- cache write-through + warm start ---------------- *)

(* The cache's one entry point, with a fixed outcome: [put] stores it the
   way the service does, [get] looks up without storing anything (its
   transient compute is never cached) and answers [None] on a miss. *)
let put c k outcome = ignore (Cache.find_or_compute c k (fun () -> outcome))

let get c k =
  match Cache.find_or_compute c k (fun () -> Error { Cache.reason = "absent"; transient = true }) with
  | outcome, true -> Some outcome
  | _, false -> None

let test_cache_write_through_and_warm_start () =
  with_path @@ fun path ->
  let s = open_ok path in
  let c = Cache.create ~capacity:8 ~store:s () in
  Alcotest.(check int) "nothing to warm-load" 0 (Cache.warm_loaded c);
  put c "k1" (Ok []);
  put c "k2" (Error (Cache.deterministic "unmappable"));
  put c "k3" (Error { Cache.reason = "flaky"; transient = true });
  Alcotest.(check int) "transient never persisted" 2 (Store.length s);
  Store.close s;
  (* a restarted process: fresh cache over the same file *)
  let s = open_ok path in
  let c = Cache.create ~capacity:8 ~store:s () in
  Alcotest.(check int) "warm-started" 2 (Cache.warm_loaded c);
  (match get c "k1" with
  | Some (Ok []) -> ()
  | _ -> Alcotest.fail "k1 must warm-start as Ok []");
  (match get c "k2" with
  | Some (Error { Cache.reason = "unmappable"; transient = false }) -> ()
  | _ -> Alcotest.fail "negative entry must warm-start deterministically");
  Alcotest.(check bool) "transient entry gone" true (get c "k3" = None);
  Store.close s

let test_cache_eviction_readthrough () =
  with_path @@ fun path ->
  let s = open_ok path in
  let c = Cache.create ~capacity:2 ~store:s () in
  put c "k1" (Ok []);
  put c "k2" (Ok []);
  put c "k3" (Ok []);
  (* k1 evicted from the LRU, but still on disk *)
  Alcotest.(check int) "lru at capacity" 2 (Cache.stats c).entries;
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).evictions;
  Alcotest.(check int) "no store reads yet" 0 (Cache.store_reads c);
  (match get c "k1" with
  | Some (Ok []) -> ()
  | _ -> Alcotest.fail "evicted entry must be served from the store");
  Alcotest.(check int) "served from disk" 1 (Cache.store_reads c);
  Alcotest.(check bool) "hit counted" true ((Cache.stats c).hits >= 1);
  (* the read-through promoted k1 back into memory: no second disk read *)
  (match get c "k1" with
  | Some (Ok []) -> ()
  | _ -> Alcotest.fail "promoted entry must hit in memory");
  Alcotest.(check int) "no second store read" 1 (Cache.store_reads c);
  (* warm start replays the full persisted set; the LRU bound applies as
     it would to live traffic, so the oldest write (k1) is evicted from
     memory — but still reachable through the store *)
  Store.close s;
  let s = open_ok path in
  let c = Cache.create ~capacity:2 ~store:s () in
  Alcotest.(check int) "all bindings replayed" 3 (Cache.warm_loaded c);
  Alcotest.(check int) "memory bounded by capacity" 2 (Cache.stats c).entries;
  (match get c "k1" with
  | Some (Ok []) -> ()
  | _ -> Alcotest.fail "oldest binding still served via read-through");
  Alcotest.(check int) "k1 came from disk" 1 (Cache.store_reads c);
  Store.close s

let test_cache_find_or_compute_persists () =
  with_path @@ fun path ->
  let s = open_ok path in
  let c = Cache.create ~store:s () in
  let runs = ref 0 in
  let compute () = incr runs; Ok [] in
  ignore (Cache.find_or_compute c "k" compute);
  Store.close s;
  let s = open_ok path in
  let c = Cache.create ~store:s () in
  let out, hit = Cache.find_or_compute c "k" compute in
  Alcotest.(check bool) "hit after restart" true hit;
  Alcotest.(check int) "computed exactly once across restarts" 1 !runs;
  (match out with Ok [] -> () | _ -> Alcotest.fail "wrong outcome");
  Store.close s

(* ---------------- registry persistence ---------------- *)

let test_registry_persists () =
  with_path @@ fun path ->
  let overlay = Lazy.force general in
  let s = open_ok path in
  let r = Registry.create ~store:s () in
  (match Registry.register r ~name:"general" overlay with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  Store.close s;
  let s = open_ok path in
  let r = Registry.create ~store:s () in
  Alcotest.(check (list string)) "overlay survives restart" [ "general" ]
    (Registry.names r);
  (match Registry.find r "general" with
  | None -> Alcotest.fail "overlay not found after restart"
  | Some e ->
    Alcotest.(check string) "same structure"
      (Serial.fingerprint overlay.design.sys)
      e.fingerprint);
  (* duplicate registration still refused after a warm start *)
  (match Registry.register r ~name:"general" overlay with
  | Ok _ -> Alcotest.fail "duplicate must be refused"
  | Error _ -> ());
  Store.close s

(* ---------------- service kill-and-restart ---------------- *)

let test_service_kill_and_restart () =
  with_path @@ fun path ->
  let overlay = Lazy.force general in
  let trace =
    Trace.generate
      (Trace.spec ~seed:5 ~requests:30 ~users:3 ~working_set:2
         ~overlays:[ ("general", Kernels.all) ]
         ())
  in
  let serve store =
    let registry = Registry.create ~store () in
    if Registry.names registry = [] then (
      match Registry.register registry ~name:"general" overlay with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "register: %s" e);
    let svc = Service.create ~cache:(Cache.create ~store ()) registry in
    let responses = Admission.run (Admission.create svc) trace in
    Service.shutdown svc;
    let stats = Cache.stats (Option.get (Service.cache svc)) in
    (responses, stats)
  in
  let digest responses =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun (r : Service.response) ->
                 Printf.sprintf "%d:%b" r.request.id (Result.is_ok r.result))
               responses)))
  in
  (* first life: compute everything, write through *)
  let s = open_ok path in
  let r1, st1 = serve s in
  Store.close s;
  Alcotest.(check bool) "first life had misses" true (st1.misses > 0);
  (* kill: nothing survives but the store file.  second life must serve
     the whole trace from disk without recomputing anything. *)
  let s = open_ok path in
  let r2, st2 = serve s in
  Store.close s;
  Alcotest.(check int) "no misses after restart" 0 st2.misses;
  Alcotest.(check int) "every request a hit" (List.length trace) st2.hits;
  Alcotest.(check string) "responses identical across restart" (digest r1)
    (digest r2)

let tests =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32;
    Alcotest.test_case "crc32 bounds" `Quick test_crc32_bounds;
    QCheck_alcotest.to_alcotest prop_crc32_bitwise;
    Alcotest.test_case "store record CRCs" `Quick test_store_record_crcs;
    Alcotest.test_case "codec framing" `Quick test_codec_framing;
    Alcotest.test_case "codec schema rejection" `Quick
      test_codec_schema_rejection;
    Alcotest.test_case "codec sys roundtrip" `Quick test_codec_sys_roundtrip;
    Alcotest.test_case "roundtrip + reopen" `Quick test_roundtrip_and_reopen;
    Alcotest.test_case "empty file is a fresh store" `Quick
      test_empty_file_is_fresh_store;
    Alcotest.test_case "torn tail truncated" `Quick test_torn_tail_truncated;
    Alcotest.test_case "mid-file corruption detected" `Quick
      test_midfile_corruption_detected;
    Alcotest.test_case "incompatible header rejected" `Quick
      test_incompatible_header_rejected;
    Alcotest.test_case "verify clean" `Quick test_verify_clean;
    Alcotest.test_case "fault: torn write" `Quick test_fault_torn_write;
    Alcotest.test_case "fault: corrupt write" `Quick test_fault_corrupt_write;
    Alcotest.test_case "fault: retry after injection" `Quick
      test_fault_retry_after_injection;
    Alcotest.test_case "compaction" `Quick test_compact;
    Alcotest.test_case "fsyncs counted, none per record" `Quick
      test_fsync_count;
    Alcotest.test_case "cache write-through + warm start" `Quick
      test_cache_write_through_and_warm_start;
    Alcotest.test_case "cache eviction read-through" `Quick
      test_cache_eviction_readthrough;
    Alcotest.test_case "find_or_compute persists" `Quick
      test_cache_find_or_compute_persists;
    Alcotest.test_case "registry persists" `Slow test_registry_persists;
    Alcotest.test_case "service kill-and-restart" `Slow
      test_service_kill_and_restart;
  ]
