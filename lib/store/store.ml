module Fault = Overgen_fault.Fault
module Obs = Overgen_obs.Obs

(* ------------------------------------------------------------------ *)
(* Instrumentation (gated: no-ops until Obs.enable)                    *)
(* ------------------------------------------------------------------ *)

(* Registered at load time, not lazily: forcing one lazy value from two
   domains at once raises. *)
let m_appends =
  Obs.Metrics.counter Obs.Metrics.default "overgen_store_appends_total"
    ~help:"records appended to the artifact store"

let m_fsyncs =
  Obs.Metrics.counter Obs.Metrics.default "overgen_store_fsyncs_total"
    ~help:"fsync calls issued by the artifact store"

(* Every fsync the store issues goes through here, so the count is whole. *)
let fsync fd =
  Unix.fsync fd;
  Obs.incr m_fsyncs

let m_reads =
  Obs.Metrics.counter Obs.Metrics.default "overgen_store_reads_total"
    ~help:"record reads served from the artifact store log"

let m_scanned =
  Obs.Metrics.counter Obs.Metrics.default "overgen_store_scan_records_total"
    ~help:"records replayed by scan-on-open"

let m_truncated =
  Obs.Metrics.counter Obs.Metrics.default "overgen_store_truncated_bytes_total"
    ~help:"damaged tail bytes dropped by recovery at open"

let m_compactions =
  Obs.Metrics.counter Obs.Metrics.default "overgen_store_compactions_total"
    ~help:"snapshot+rename compactions of the artifact store"

(* ------------------------------------------------------------------ *)
(* On-disk format                                                      *)
(* ------------------------------------------------------------------ *)

let header = Printf.sprintf "overgen-store v%d\n" Codec.version
let header_len = String.length header
let rec_head_len = 8 (* u32 payload length + u32 CRC32 *)

let tag_put = 1
let tag_del = 2

let encode_payload ~ns ~key value =
  let b = Buffer.create 64 in
  (match value with
  | Some v ->
    Codec.put_u8 b tag_put;
    Codec.put_string b ns;
    Codec.put_string b key;
    Codec.put_string b v
  | None ->
    Codec.put_u8 b tag_del;
    Codec.put_string b ns;
    Codec.put_string b key);
  Buffer.contents b

type decoded = { d_ns : string; d_key : string; d_value : string option }

let decode_payload payload =
  match
    let pos = ref 0 in
    let tag = Codec.get_u8 payload pos in
    let ns = Codec.get_string payload pos in
    let key = Codec.get_string payload pos in
    if tag = tag_put then
      Some { d_ns = ns; d_key = key; d_value = Some (Codec.get_string payload pos) }
    else if tag = tag_del then Some { d_ns = ns; d_key = key; d_value = None }
    else None
  with
  | exception Codec.Truncated -> None
  | d -> d

(* ------------------------------------------------------------------ *)
(* Scanning (shared by open and verify)                                *)
(* ------------------------------------------------------------------ *)

type damage = { dmg_offset : int; dmg_reason : string }

(* Walk [contents] from just past the header, calling [apply] on every
   intact record as (offset, total_bytes, decoded).  Returns the offset of
   the first byte past the last intact record and the damage, if any, that
   ended the scan: a short header/payload is a torn write, a CRC mismatch
   is corruption, an undecodable payload a framing error.  Everything
   after the first damaged record is unreachable (record boundaries are
   lost), so the scan stops there. *)
let scan contents apply =
  let len = String.length contents in
  let rec go off n =
    if off = len then (off, n, None)
    else if len - off < rec_head_len then
      (off, n, Some { dmg_offset = off; dmg_reason = "torn record header" })
    else
      let pos = ref off in
      let plen = Codec.get_u32 contents pos in
      let crc = Codec.get_u32 contents pos in
      if len - !pos < plen then
        (off, n, Some { dmg_offset = off; dmg_reason = "torn record payload" })
      else if Crc32.sub contents !pos plen <> crc then
        (off, n, Some { dmg_offset = off; dmg_reason = "checksum mismatch" })
      else
        match decode_payload (String.sub contents !pos plen) with
        | None ->
          (off, n, Some { dmg_offset = off; dmg_reason = "unparseable record payload" })
        | Some d ->
          let total = rec_head_len + plen in
          apply off total d;
          go (off + total) (n + 1)
  in
  go header_len 0

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type open_stats = { records : int; live : int; truncated_bytes : int }

type loc = { off : int; total : int; mutable seq : int }

type t = {
  path_ : string;
  mutable fd : Unix.file_descr;
  index : (string * string, loc) Hashtbl.t;
  mutable next_seq : int;
  mutable good_len : int;  (* offset just past the last intact record *)
  mutable dirty : bool;    (* a failed append left bytes past good_len *)
  mutable live_bytes_ : int;
  mutable file_bytes_ : int;
  mutable stats : open_stats;
  mutable closed : bool;
  m : Mutex.t;
}

let path t = t.path_
let last_open_stats t = t.stats

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () ->
      if t.closed then failwith "Store: store is closed";
      f ())

let really_write fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let really_read fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec go pos =
    if pos < len then
      match Unix.read fd b pos (len - pos) with
      | 0 -> failwith "Store: unexpected end of file (log changed underneath us?)"
      | n -> go (pos + n)
  in
  go 0;
  Bytes.unsafe_to_string b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Replay one scanned record into the index.  Last write wins; a rewrite
   moves the binding to the end of the replay order so warm-started LRUs
   see the freshest bindings as most recently used. *)
let apply_record t off total d =
  let k = (d.d_ns, d.d_key) in
  (match Hashtbl.find_opt t.index k with
  | Some old ->
    t.live_bytes_ <- t.live_bytes_ - old.total;
    Hashtbl.remove t.index k
  | None -> ());
  match d.d_value with
  | Some _ ->
    Hashtbl.replace t.index k { off; total; seq = t.next_seq };
    t.next_seq <- t.next_seq + 1;
    t.live_bytes_ <- t.live_bytes_ + total
  | None -> ()

let open_ ~path () =
  match
    if Sys.file_exists path then read_file path
    else begin
      (* fresh store: just the header *)
      let oc = open_out_bin path in
      output_string oc header;
      close_out oc;
      header
    end
  with
  | exception Sys_error e -> Error e
  | contents ->
    let contents =
      if contents <> "" then contents
      else begin
        (* an existing empty file (e.g. freshly touched, or a temp file) is
           a fresh store, not a corrupt one *)
        let oc = open_out_bin path in
        output_string oc header;
        close_out oc;
        header
      end
    in
    if
      String.length contents < header_len
      || String.sub contents 0 header_len <> header
    then
      Error
        (Printf.sprintf "%s: not an overgen store (or incompatible version; this \
                         build reads format v%d)" path Codec.version)
    else begin
      let t =
        {
          path_ = path;
          fd = Unix.openfile path [ Unix.O_RDWR ] 0o644;
          index = Hashtbl.create 64;
          next_seq = 0;
          good_len = header_len;
          dirty = false;
          live_bytes_ = 0;
          file_bytes_ = String.length contents;
          stats = { records = 0; live = 0; truncated_bytes = 0 };
          closed = false;
          m = Mutex.create ();
        }
      in
      Obs.Span.with_span "store_scan" ~attrs:[ ("path", path) ] @@ fun () ->
      let good_end, records, damage = scan contents (apply_record t) in
      let truncated_bytes = String.length contents - good_end in
      (match damage with
      | Some _ ->
        (* recovery: drop the damaged tail so the next append starts at a
           clean record boundary *)
        Unix.ftruncate t.fd good_end;
        t.file_bytes_ <- good_end
      | None -> ());
      t.good_len <- good_end;
      t.stats <- { records; live = Hashtbl.length t.index; truncated_bytes };
      Obs.incr ~by:records m_scanned;
      if truncated_bytes > 0 then
        Obs.incr ~by:truncated_bytes m_truncated;
      Ok t
    end

(* One record append.  The fault points model the two ways a write dies:
   [store.append] raises before any byte lands (a clean failure), and
   [store.torn_write] raises after the header is on disk — a Transient
   injection leaves a short payload (a torn tail), a Deterministic one a
   full record with a flipped byte (bit rot caught by the checksum).  A
   failed append leaves [dirty] set; the next append (or compact) rewinds
   the file to [good_len] first, so in-process retries keep working while
   a crash right after the fault leaves exactly the torn file recovery is
   tested against. *)
let append t payload =
  Fault.point Fault.Points.store_append;
  if t.dirty then begin
    Unix.ftruncate t.fd t.good_len;
    t.file_bytes_ <- t.good_len;
    t.dirty <- false
  end;
  ignore (Unix.lseek t.fd t.good_len Unix.SEEK_SET);
  let plen = String.length payload in
  let head = Buffer.create rec_head_len in
  Codec.put_u32 head plen;
  Codec.put_u32 head (Crc32.sub payload 0 plen);
  let off = t.good_len in
  t.dirty <- true;
  really_write t.fd (Buffer.contents head);
  (try Fault.point Fault.Points.store_torn
   with Fault.Injected { kind; _ } as e ->
     (match kind with
     | Fault.Transient -> really_write t.fd (String.sub payload 0 (plen / 2))
     | Fault.Deterministic ->
       let b = Bytes.of_string payload in
       if plen > 0 then
         Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
       really_write t.fd (Bytes.unsafe_to_string b));
     t.file_bytes_ <- max t.file_bytes_ (Unix.lseek t.fd 0 Unix.SEEK_CUR);
     raise e);
  really_write t.fd payload;
  let total = rec_head_len + plen in
  t.good_len <- off + total;
  t.file_bytes_ <- max t.file_bytes_ t.good_len;
  t.dirty <- false;
  Obs.incr m_appends;
  (off, total)

let put t ~ns ~key value =
  with_lock t @@ fun () ->
  let off, total = append t (encode_payload ~ns ~key (Some value)) in
  apply_record t off total { d_ns = ns; d_key = key; d_value = Some value }

let delete t ~ns ~key =
  with_lock t @@ fun () ->
  if Hashtbl.mem t.index (ns, key) then begin
    let off, total = append t (encode_payload ~ns ~key None) in
    apply_record t off total { d_ns = ns; d_key = key; d_value = None }
  end

(* Read a record back from the log and re-verify it: the index only holds
   offsets, so every [get] exercises the real on-disk bytes. *)
let read_value t (l : loc) =
  let contents = really_read t.fd ~off:l.off ~len:l.total in
  let pos = ref 0 in
  let plen = Codec.get_u32 contents pos in
  let crc = Codec.get_u32 contents pos in
  if plen <> l.total - rec_head_len then failwith "Store: record length changed on disk";
  if Crc32.sub contents rec_head_len plen <> crc then
    failwith "Store: checksum mismatch on read (log damaged underneath us)";
  match decode_payload (String.sub contents rec_head_len plen) with
  | Some { d_value = Some v; _ } ->
    Obs.incr m_reads;
    v
  | _ -> failwith "Store: indexed record is not a Put"

let get t ~ns ~key =
  with_lock t @@ fun () ->
  Option.map (read_value t) (Hashtbl.find_opt t.index (ns, key))

let live_sorted t ~keep =
  Hashtbl.fold
    (fun (ns, key) l acc -> if keep ns then (l.seq, ns, key, l) :: acc else acc)
    t.index []
  |> List.sort compare

let bindings t ~ns =
  with_lock t @@ fun () ->
  List.map
    (fun (_, _, key, l) -> (key, read_value t l))
    (live_sorted t ~keep:(String.equal ns))

let namespaces t =
  with_lock t @@ fun () ->
  let counts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (ns, _) _ ->
      Hashtbl.replace counts ns (1 + Option.value ~default:0 (Hashtbl.find_opt counts ns)))
    t.index;
  List.sort compare (Hashtbl.fold (fun ns n acc -> (ns, n) :: acc) counts [])

let length t = with_lock t @@ fun () -> Hashtbl.length t.index
let file_bytes t = with_lock t @@ fun () -> t.file_bytes_
let live_bytes t = with_lock t @@ fun () -> t.live_bytes_

let sync t =
  with_lock t @@ fun () -> fsync t.fd

let close t =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () ->
      if not t.closed then begin
        fsync t.fd;
        Unix.close t.fd;
        t.closed <- true
      end)

(* Snapshot + atomic rename: write every live binding (in replay order) to
   [path.compact], fsync it, and rename over the log.  A crash anywhere
   leaves either the complete old file or the complete new one. *)
let compact t =
  with_lock t @@ fun () ->
  Obs.Span.with_span "store_compact" ~attrs:[ ("path", t.path_) ] @@ fun () ->
  let live = live_sorted t ~keep:(fun _ -> true) in
  let items =
    List.map (fun (_, ns, key, l) -> (ns, key, read_value t l)) live
  in
  let tmp = t.path_ ^ ".compact" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let new_locs =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        really_write fd header;
        let off = ref header_len in
        let locs =
          List.map
            (fun (ns, key, v) ->
              let payload = encode_payload ~ns ~key (Some v) in
              let plen = String.length payload in
              let head = Buffer.create rec_head_len in
              Codec.put_u32 head plen;
              Codec.put_u32 head (Crc32.sub payload 0 plen);
              really_write fd (Buffer.contents head);
              really_write fd payload;
              let loc = ((ns, key), !off, rec_head_len + plen) in
              off := !off + rec_head_len + plen;
              loc)
            items
        in
        fsync fd;
        locs)
  in
  Unix.close t.fd;
  Unix.rename tmp t.path_;
  t.fd <- Unix.openfile t.path_ [ Unix.O_RDWR ] 0o644;
  Hashtbl.reset t.index;
  t.next_seq <- 0;
  t.live_bytes_ <- 0;
  List.iter
    (fun (k, off, total) ->
      Hashtbl.replace t.index k { off; total; seq = t.next_seq };
      t.next_seq <- t.next_seq + 1;
      t.live_bytes_ <- t.live_bytes_ + total)
    new_locs;
  t.good_len <- header_len + t.live_bytes_;
  t.file_bytes_ <- t.good_len;
  t.dirty <- false;
  Obs.incr m_compactions

(* ------------------------------------------------------------------ *)
(* Offline verification                                                *)
(* ------------------------------------------------------------------ *)

type verify_error = { offset : int; reason : string; intact_records : int }

let verify ~path =
  match read_file path with
  | exception Sys_error e -> Error { offset = 0; reason = e; intact_records = 0 }
  | contents ->
    if
      String.length contents < header_len
      || String.sub contents 0 header_len <> header
    then
      Error
        {
          offset = 0;
          reason =
            Printf.sprintf "bad or incompatible header (this build reads format v%d)"
              Codec.version;
          intact_records = 0;
        }
    else begin
      let live = Hashtbl.create 64 in
      let good_end, records, damage =
        scan contents (fun _ _ d ->
            match d.d_value with
            | Some _ -> Hashtbl.replace live (d.d_ns, d.d_key) ()
            | None -> Hashtbl.remove live (d.d_ns, d.d_key))
      in
      match damage with
      | Some { dmg_offset; dmg_reason } ->
        Error { offset = dmg_offset; reason = dmg_reason; intact_records = records }
      | None ->
        Ok
          {
            records;
            live = Hashtbl.length live;
            truncated_bytes = String.length contents - good_end;
          }
    end
