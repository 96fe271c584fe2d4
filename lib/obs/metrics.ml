type counter = int Atomic.t

type gauge = float Atomic.t

type histogram = {
  bounds : float array;          (* strictly increasing upper bounds *)
  buckets : int Atomic.t array;  (* per-bucket (non-cumulative) counts;
                                    length = Array.length bounds + 1, the
                                    last one is the +inf overflow bucket *)
  count : int Atomic.t;
  sum : float Atomic.t;          (* CAS-retried add *)
}

type kind =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type metric = {
  name : string;
  labels : (string * string) list;
  help : string;
  kind : kind;
}

type registry = {
  label : string;
  m : Mutex.t;
  mutable metrics : metric list;  (* newest first *)
}

let create_registry ?(label = "") () =
  { label; m = Mutex.create (); metrics = [] }

let default = create_registry ~label:"overgen" ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* Get-or-create under the registry mutex; creation is rare (module load,
   first use), so a linear scan is fine. *)
let register reg name labels help make match_kind =
  Mutex.lock reg.m;
  let found =
    List.find_opt (fun m -> m.name = name && m.labels = labels) reg.metrics
  in
  let r =
    match found with
    | Some m -> (
      match match_kind m.kind with
      | Some v ->
        Mutex.unlock reg.m;
        Ok v
      | None ->
        let k = kind_name m.kind in
        Mutex.unlock reg.m;
        Error
          (Printf.sprintf "Metrics: %s is already registered as a %s" name k))
    | None ->
      let v, kind = make () in
      reg.metrics <- { name; labels; help; kind } :: reg.metrics;
      Mutex.unlock reg.m;
      Ok v
  in
  match r with Ok v -> v | Error e -> invalid_arg e

let counter ?(help = "") ?(labels = []) reg name =
  register reg name labels help
    (fun () ->
      let c = Atomic.make 0 in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c

let gauge ?(help = "") ?(labels = []) reg name =
  register reg name labels help
    (fun () ->
      let g = Atomic.make 0.0 in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let default_buckets =
  [| 1e-4; 5e-4; 1e-3; 5e-3; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 |]

let rec atomic_add_float a x =
  let v = Atomic.get a in
  if not (Atomic.compare_and_set a v (v +. x)) then atomic_add_float a x

let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) reg name =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must be increasing")
    buckets;
  register reg name labels help
    (fun () ->
      let h =
        {
          bounds = Array.copy buckets;
          buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          count = Atomic.make 0;
          sum = Atomic.make 0.0;
        }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

(* Binary search for the first bound >= v (n = the overflow bucket):
   the same bucket a linear scan picks, NaN included. *)
let observe h v =
  let rec idx lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= h.bounds.(mid) then idx lo mid else idx (mid + 1) hi
  in
  ignore (Atomic.fetch_and_add h.buckets.(idx 0 (Array.length h.bounds)) 1);
  ignore (Atomic.fetch_and_add h.count 1);
  atomic_add_float h.sum v

type histogram_snapshot = {
  h_buckets : (float * int) array;
  h_count : int;
  h_sum : float;
}

let histogram_snapshot h =
  let n = Array.length h.bounds in
  let cum = ref 0 in
  let buckets =
    Array.init (n + 1) (fun i ->
        cum := !cum + Atomic.get h.buckets.(i);
        ((if i < n then h.bounds.(i) else infinity), !cum))
  in
  { h_buckets = buckets; h_count = Atomic.get h.count; h_sum = Atomic.get h.sum }

let quantile s q =
  let total = snd s.h_buckets.(Array.length s.h_buckets - 1) in
  if total = 0 then 0.0
  else
    let rank = q *. float_of_int total in
    let rec go i lo_bound lo_count =
      let le, c = s.h_buckets.(i) in
      if float_of_int c >= rank then
        if le = infinity then lo_bound
        else if c = lo_count then le
        else
          lo_bound
          +. (le -. lo_bound) *. (rank -. float_of_int lo_count)
             /. float_of_int (c - lo_count)
      else go (i + 1) le c
    in
    go 0 0.0 0

(* ---------- rendering ---------- *)

let sorted_metrics reg =
  Mutex.lock reg.m;
  let ms = reg.metrics in
  Mutex.unlock reg.m;
  List.stable_sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) ms

let label_str labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let render_report ?label reg =
  let label = match label with Some l -> l | None -> reg.label in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "-- metrics%s %s"
    (if label = "" then "" else " [" ^ label ^ "]")
    (String.make (max 2 (44 - String.length label)) '-');
  let ms = sorted_metrics reg in
  if ms = [] then line "(no metrics registered)";
  List.iter
    (fun m ->
      let id = m.name ^ label_str m.labels in
      match m.kind with
      | Counter c -> line "%-52s %12d" id (Atomic.get c)
      | Gauge g -> line "%-52s %12.4f" id (Atomic.get g)
      | Histogram h ->
        let s = histogram_snapshot h in
        let mean = if s.h_count = 0 then 0.0 else s.h_sum /. float_of_int s.h_count in
        line "%-52s count %8d  sum %12.6f  mean %10.6f" id s.h_count s.h_sum mean)
    ms;
  Buffer.contents b

(* Prometheus label values backslash-escape backslash, quote, newline. *)
let prom_escape v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels)
    ^ "}"

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render_prometheus reg =
  let b = Buffer.create 2048 in
  let seen_header = Hashtbl.create 16 in
  let header name help kind =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then Printf.bprintf b "# HELP %s %s\n" name help;
      Printf.bprintf b "# TYPE %s %s\n" name kind
    end
  in
  List.iter
    (fun m ->
      match m.kind with
      | Counter c ->
        header m.name m.help "counter";
        Printf.bprintf b "%s%s %d\n" m.name (prom_labels m.labels) (Atomic.get c)
      | Gauge g ->
        header m.name m.help "gauge";
        Printf.bprintf b "%s%s %s\n" m.name (prom_labels m.labels)
          (prom_float (Atomic.get g))
      | Histogram h ->
        header m.name m.help "histogram";
        let s = histogram_snapshot h in
        Array.iter
          (fun (le, cum) ->
            let le_s = if le = infinity then "+Inf" else prom_float le in
            Printf.bprintf b "%s_bucket%s %d\n" m.name
              (prom_labels (m.labels @ [ ("le", le_s) ]))
              cum)
          s.h_buckets;
        Printf.bprintf b "%s_sum%s %s\n" m.name (prom_labels m.labels)
          (prom_float s.h_sum);
        Printf.bprintf b "%s_count%s %d\n" m.name (prom_labels m.labels) s.h_count)
    (sorted_metrics reg);
  Buffer.contents b

let reset reg =
  Mutex.lock reg.m;
  List.iter
    (fun m ->
      match m.kind with
      | Counter c -> Atomic.set c 0
      | Gauge g -> Atomic.set g 0.0
      | Histogram h ->
        Array.iter (fun bucket -> Atomic.set bucket 0) h.buckets;
        Atomic.set h.count 0;
        Atomic.set h.sum 0.0)
    reg.metrics;
  Mutex.unlock reg.m
