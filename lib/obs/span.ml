type span = {
  id : int;
  parent : int;
  trace : string;
  name : string;
  attrs : (string * string) list;
  domain : int;
  start_s : float;
  dur_s : float;
}

(* An open (not yet finished) span. *)
type frame = {
  fid : int;
  fname : string;
  mutable fattrs : (string * string) list;
  ft0 : float;
}

(* Per-domain recording state; registered globally on first use so the
   merge can find every buffer. *)
type dbuf = {
  dom : int;
  mutable stack : frame list;   (* open spans, innermost first *)
  mutable acc : span list;      (* finished spans, newest first *)
  mutable trace : string;       (* current trace context, "" when none *)
}

let bufs_m = Mutex.create ()
let all_bufs : dbuf list ref = ref []

let dls_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom = (Domain.self () :> int); stack = []; acc = []; trace = "" }
      in
      Mutex.lock bufs_m;
      all_bufs := b :: !all_bufs;
      Mutex.unlock bufs_m;
      b)

let next_id = Atomic.make 1

(* Epoch: all start times are relative to it, keeping exported timestamps
   small.  Mutated only by [reset] (quiescent by contract). *)
let epoch = ref (Unix.gettimeofday ())

(* ---------- trace context ---------- *)

(* Trace ids are 128-bit lowercase-hex strings derived deterministically
   from an [Rng] stream — never from the wall clock or [Random] — so a
   replayed run produces the same ids and traces can be diffed. *)
let fresh_trace rng =
  let b = Buffer.create 32 in
  for _ = 1 to 8 do
    Buffer.add_string b (Printf.sprintf "%04x" (Overgen_util.Rng.int rng 0x10000))
  done;
  Buffer.contents b

(* [with_trace] is deliberately NOT gated on [Control]: the flight
   recorder ({!Log}) tags events with the current trace id even when span
   recording is off, so request/trace correlation survives in the null
   backend.  The cost is one DLS read and two field writes per request —
   not per instrumented site. *)
let with_trace trace f =
  if trace = "" then f ()
  else begin
    let b = Domain.DLS.get dls_key in
    let saved = b.trace in
    b.trace <- trace;
    Fun.protect ~finally:(fun () -> b.trace <- saved) f
  end

let current_trace () = (Domain.DLS.get dls_key).trace

let with_span ?(attrs = []) name f =
  if not (Control.on ()) then f ()
  else begin
    let b = Domain.DLS.get dls_key in
    let fr =
      {
        fid = Atomic.fetch_and_add next_id 1;
        fname = name;
        (* kept reversed while open so [add_attr] is a cons; un-reversed
           when the span is finished *)
        fattrs = List.rev attrs;
        ft0 = Unix.gettimeofday ();
      }
    in
    let parent = match b.stack with [] -> 0 | p :: _ -> p.fid in
    b.stack <- fr :: b.stack;
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        (match b.stack with _ :: rest -> b.stack <- rest | [] -> ());
        b.acc <-
          {
            id = fr.fid;
            parent;
            trace = b.trace;
            name = fr.fname;
            attrs = List.rev fr.fattrs;
            domain = b.dom;
            start_s = fr.ft0 -. !epoch;
            dur_s = t1 -. fr.ft0;
          }
          :: b.acc)
      f
  end

(* A stand-in frame for a span open on another domain: only its id is
   read, as the parent of the spans opened above it. *)
let with_parent id f =
  if id = 0 || not (Control.on ()) then f ()
  else begin
    let b = Domain.DLS.get dls_key in
    let saved = b.stack in
    b.stack <- [ { fid = id; fname = ""; fattrs = []; ft0 = 0.0 } ];
    Fun.protect ~finally:(fun () -> b.stack <- saved) f
  end

(* Serializes the one buffer write of detached spans recorded by
   threads that share a domain. *)
let detached_m = Mutex.create ()

let with_detached_span ~trace ?(attrs = []) name f =
  if not (Control.on ()) then f 0
  else begin
    let b = Domain.DLS.get dls_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let s =
          {
            id;
            parent = 0;
            trace;
            name;
            attrs;
            domain = b.dom;
            start_s = t0 -. !epoch;
            dur_s = t1 -. t0;
          }
        in
        Mutex.protect detached_m (fun () -> b.acc <- s :: b.acc))
      (fun () -> f id)
  end

let add_attr k v =
  if Control.on () then
    let b = Domain.DLS.get dls_key in
    match b.stack with
    | [] -> ()
    | fr :: _ -> fr.fattrs <- (k, v) :: fr.fattrs

let current_id () =
  if not (Control.on ()) then 0
  else
    let b = Domain.DLS.get dls_key in
    match b.stack with [] -> 0 | fr :: _ -> fr.fid

let gather () =
  Mutex.lock bufs_m;
  let bs = !all_bufs in
  Mutex.unlock bufs_m;
  bs

let spans () =
  let all = List.concat_map (fun b -> b.acc) (gather ()) in
  List.stable_sort
    (fun a b ->
      match compare a.start_s b.start_s with 0 -> compare a.id b.id | c -> c)
    all

let count () = List.fold_left (fun n b -> n + List.length b.acc) 0 (gather ())

let reset () =
  List.iter (fun b -> b.acc <- []) (gather ());
  epoch := Unix.gettimeofday ()
