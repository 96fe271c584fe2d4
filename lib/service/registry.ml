module Store = Overgen_store.Store
module Codec = Overgen_store.Codec
module Serial = Overgen_adg.Serial

type entry = { name : string; overlay : Overgen.overlay; fingerprint : string }

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable order : string list;  (* reverse registration order *)
  store : Store.t option;
  m : Mutex.t;
}

let ns = "overlay-registry"
let schema = "registry-overlay-v2"

(* The persisted form of an overlay leads with the design's canonical
   Serial text (version-tagged); the rest of the overlay (synthesis
   report, trained model, DSE trace) rides as a schema-tagged blob.  On
   load the Serial text is re-parsed and its fingerprint compared against
   the blob's design — a record that fails either check is rejected, not
   misparsed. *)
let encode_overlay (overlay : Overgen.overlay) =
  let b = Buffer.create 4096 in
  Codec.put_string b (Codec.encode_sys overlay.Overgen.design.sys);
  Codec.put_string b (Codec.encode_marshal ~schema overlay);
  Buffer.contents b

let decode_overlay s : Overgen.overlay option =
  match
    let pos = ref 0 in
    let sys_payload = Codec.get_string s pos in
    let blob = Codec.get_string s pos in
    (Codec.decode_sys sys_payload, Codec.decode_marshal ~schema blob)
  with
  | exception Codec.Truncated -> None
  | Ok sys, Ok overlay
    when Serial.fingerprint sys = Overgen.fingerprint overlay ->
    Some overlay
  | _ -> None

let add_entry t name overlay =
  let entry = { name; overlay; fingerprint = Overgen.fingerprint overlay } in
  Hashtbl.add t.tbl name entry;
  t.order <- name :: t.order;
  entry

let create ?store () =
  let t = { tbl = Hashtbl.create 8; order = []; store; m = Mutex.create () } in
  (* Warm start: named overlays registered by a previous process come
     back in registration order.  Undecodable records (an older schema, a
     failed integrity check) are skipped — the name is simply absent. *)
  (match store with
  | None -> ()
  | Some s ->
    List.iter
      (fun (name, v) ->
        match decode_overlay v with
        | Some overlay when not (Hashtbl.mem t.tbl name) ->
          ignore (add_entry t name overlay)
        | _ -> ())
      (Store.bindings s ~ns));
  t

let register t ~name overlay =
  Mutex.lock t.m;
  let r =
    if Hashtbl.mem t.tbl name then
      Error (Printf.sprintf "overlay %S is already registered" name)
    else Ok (add_entry t name overlay)
  in
  Mutex.unlock t.m;
  (* write-through outside the lock: the store has its own *)
  (match (r, t.store) with
  | Ok _, Some s -> Store.put s ~ns ~key:name (encode_overlay overlay)
  | _ -> ());
  r

let remove t name =
  Mutex.lock t.m;
  let r =
    match Hashtbl.find_opt t.tbl name with
    | None ->
      Error (Printf.sprintf "overlay %S is not registered" name)
    | Some entry ->
      Hashtbl.remove t.tbl name;
      t.order <- List.filter (fun n -> n <> name) t.order;
      Ok entry
  in
  Mutex.unlock t.m;
  (* delete-through outside the lock, mirroring [register]: a registry
     restored from this store must not resurrect the retired name *)
  (match (r, t.store) with
  | Ok _, Some s -> Store.delete s ~ns ~key:name
  | _ -> ());
  r

let find t name =
  Mutex.lock t.m;
  let r = Hashtbl.find_opt t.tbl name in
  Mutex.unlock t.m;
  r

let names t =
  Mutex.lock t.m;
  let r = List.rev t.order in
  Mutex.unlock t.m;
  r

let find_fingerprint t fp =
  Mutex.lock t.m;
  let r =
    List.rev t.order
    |> List.filter_map (Hashtbl.find_opt t.tbl)
    |> List.filter (fun e -> e.fingerprint = fp)
  in
  Mutex.unlock t.m;
  r
