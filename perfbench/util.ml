(* Shared plumbing for the workloads: clocks, order statistics, the
   environment stamp, process memory, Prometheus scraping, the span-based
   self-time table, and the JSON result line. *)

module Obs = Overgen_obs.Obs

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------------- order statistics ---------------- *)

(* Linear interpolation between closest ranks (the "inclusive" method). *)
let percentile q samples =
  match samples with
  | [] -> nan
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.0

(* A tail percentile is only reported with at least ten samples beyond it. *)
let min_samples_for q = int_of_float (Float.ceil (10.0 /. (1.0 -. q)))

(* ---------------- machine speed ---------------- *)

(* The 2-core VM the benchmark was defined on runs the same code up to 1.5x
   slower from one minute to the next, and by 10-15% between stretches of
   a few seconds, as neighbours load the host.  A fixed CPU task that
   shares no code with the program (hashing, allocation, sorting, float
   loops) tracks that speed.  Of the tasks tried (this one, an
   allocation-free integer/float loop, random reads over 16 MiB), this one
   followed the evaluate loop's speed best.  Its float array is allocated
   once, so the task leaves no large blocks in the major heap. *)
let reference_floats = Array.init 100_000 float_of_int

let reference_task () =
  let t = Hashtbl.create 4096 in
  for i = 0 to 100_000 do
    Hashtbl.replace t (i land 4095) (float_of_int i)
  done;
  let l = List.init 70_000 (fun i -> i * 7919 mod 10007) in
  let s = List.fold_left ( + ) 0 (List.sort compare l) in
  let acc = ref 0.0 in
  for r = 1 to 7 do
    Array.iteri
      (fun i x -> acc := !acc +. (x *. float_of_int (r + (i land 3))))
      reference_floats
  done;
  ignore (Sys.opaque_identity (s, !acc))

(* The task's median time on the defining machine. *)
let reference_nominal_s = 0.022

(* Timed samples of the task between measured windows. *)
let gap_samples = 4

let probe clock =
  List.init gap_samples (fun _ ->
      let t0 = clock () in
      reference_task ();
      clock () -. t0)

(* Run [n] measured windows [f 0] .. [f (n-1)] with the task sampled before
   the first and after every window, outside their timing.  Each result
   comes with its window's slowdown: the median of the samples on both
   sides over the task's nominal time (> 1 is slower than the defining
   machine).  A window's time divided by its slowdown (a rate multiplied)
   is on the defining machine's scale; pairing each window with the speed
   around it also follows changes of speed within a run.  [clock] times
   the task: wall time by default, or the CPU clock the windows are
   timed on. *)
let paired_windows ?(clock = now) n f =
  let before = ref (probe clock) and out = ref [] in
  for i = 0 to n - 1 do
    let r = f i in
    let after = probe clock in
    out := (r, median (!before @ after) /. reference_nominal_s) :: !out;
    before := after
  done;
  List.rev !out

(* ---------------- run context ---------------- *)

type ctx = {
  seed : int;
  seconds : float;  (** measured time of the untraced run *)
  trace : bool;  (** per-layer run: an untraced then a traced phase *)
  tiny : bool;  (** smoke-test size: minimal work, no sample floors *)
  golden_dir : string;
  out_dir : string;  (** traces and other artefacts *)
}

(* ---------------- metrics and the result line ---------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** untraced end-to-end metrics (trace 0) *)
  layer : metric list;  (** per-layer metrics (trace 1) *)
  report : (string * string * float) list;
      (** the workload's own names for its headline numbers, for the
          human-readable report *)
  table : string;  (** per-layer self-time table of the traced phase *)
  notes : string list;  (** check failures and failed operations *)
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
          (json_number mt.value) mt.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

(* ---------------- files ---------------- *)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    let n = input ic chunk 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () -> output_string oc s

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* ---------------- process memory and the environment ---------------- *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let vm_hwm_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match read_file path with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      nan (lines text)

(* CPU time of process [pid] (None: this process), all its threads, in
   seconds: the sum of the first field of each thread's schedstat, its
   time on a CPU in nanoseconds. *)
let cpu_s pid =
  let dir =
    match pid with None -> "/proc/self/task" | Some p -> Printf.sprintf "/proc/%d/task" p
  in
  Array.fold_left
    (fun acc tid ->
      match String.split_on_char ' ' (read_file (Filename.concat (Filename.concat dir tid) "schedstat")) with
      | ns :: _ -> acc +. (float_of_string ns /. 1e9)
      | [] -> acc
      | exception Sys_error _ -> acc)
    0.0 (Sys.readdir dir)

let loadavg () =
  match read_file "/proc/loadavg" with
  | exception Sys_error _ -> "unknown"
  | s -> (
    match String.split_on_char ' ' s with
    | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
    | _ -> "unknown")

let nproc () =
  match read_file "/proc/cpuinfo" with
  | exception Sys_error _ -> 0
  | s ->
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (lines s))

(* The commit, read straight from the git metadata when the tree is a
   checkout; an exported tree has none. *)
let git_commit () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head ->
    let prefix = "ref: " in
    let pl = String.length prefix in
    if String.length head > pl && String.sub head 0 pl = prefix then
      let r = String.sub head pl (String.length head - pl) in
      match trim (read_file (Filename.concat ".git" r)) with
      | exception Sys_error _ -> "unknown"
      | c -> c
    else head

let env_stamp ~load_start =
  [
    ("nproc", string_of_int (nproc ()));
    ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
    ("loadavg_start", load_start);
    ("loadavg_end", loadavg ());
    ("ocaml", Sys.ocaml_version);
    ("commit", git_commit ());
  ]

(* ---------------- the default metric registry ---------------- *)

(* Model training and the general overlay: the set-up every workload that
   compiles onto the general overlay pays once. *)
let model_and_general () =
  let model = Overgen.train_model () in
  match Overgen.general ~model Overgen_workload.Kernels.all with
  | Ok o -> (model, o)
  | Error e -> failwith ("general overlay: " ^ e)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.default name)

(* Minor-heap words allocated by [f] on this domain. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* ---------------- Prometheus text scraping ---------------- *)

let starts_with s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Cumulative bucket counts of the unlabeled series of histogram [name]:
   (upper bound, count) ascending, the last bound infinite. *)
let prom_buckets text name =
  let prefix = name ^ "_bucket{le=\"" in
  let pl = String.length prefix in
  List.sort compare
    (List.filter_map
       (fun line ->
         if not (starts_with line prefix) then None
         else
           let q = String.index_from line pl '"' in
           let sp = String.rindex line ' ' in
           let le =
             match String.sub line pl (q - pl) with "+Inf" -> infinity | v -> float_of_string v
           in
           Some (le, float_of_string (String.sub line (sp + 1) (String.length line - sp - 1))))
       (lines text))

(* Bucket-wise difference of two scrapes: the observations in between. *)
let bucket_delta after before =
  List.map
    (fun (le, c) ->
      (le, c -. Option.value ~default:0.0 (List.assoc_opt le before)))
    after

(* Quantile of a cumulative histogram, interpolated linearly inside the
   bucket that holds it (the Prometheus histogram_quantile rule). *)
let bucket_quantile q buckets =
  match List.rev buckets with
  | [] -> nan
  | (_, total) :: _ when total <= 0.0 -> nan
  | (_, total) :: _ ->
    let rank = q *. total in
    let rec go lo_bound lo_count = function
      | [] -> nan
      | (le, c) :: rest ->
        if c >= rank then
          if le = infinity then lo_bound
          else if c = lo_count then le
          else lo_bound +. ((le -. lo_bound) *. (rank -. lo_count) /. (c -. lo_count))
        else go le c rest
    in
    go 0.0 0.0 buckets

(* ---------------- spans and the self-time table ---------------- *)

(* The benchmark wraps each call into a layer in a span named after the
   layer; library-internal spans are folded into the layer they belong to. *)
let layer_of_span = function
  | "mdfg" | "mdfg_build" | "compile" -> "mdfg"
  | "scheduler" | "schedule" | "spatial_schedule" | "spatial_reschedule" -> "scheduler"
  | "sim" | "sim_region" | "simulate" -> "sim"
  | "dse" | "dse_island" | "dse_checkpoint" -> "dse"
  | "perf" | "perf_model" -> "perf"
  | "mlp" -> "mlp"
  | "frontend" -> "frontend"
  | "client_send" | "client_recv" | "server_decode" | "forward" -> "net"
  | "request" | "compile_schedule" | "cache_store" -> "service"
  | other -> other

let span = Obs.Span.with_span

(* Self time per layer over spans from one or more processes: a span's
   duration minus its direct children's, children matched by (pid, id). *)
let self_times (spans : (int * Obs.Span.span) list) =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun (pid, (s : Obs.Span.span)) ->
      if s.parent <> 0 then
        Hashtbl.replace child_time (pid, s.parent)
          (s.dur_s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time (pid, s.parent))))
    spans;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun (pid, (s : Obs.Span.span)) ->
      let self =
        s.dur_s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time (pid, s.id))
      in
      let layer = layer_of_span s.name in
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt per_layer layer) in
      Hashtbl.replace per_layer layer (t +. Float.max 0.0 self, n + 1))
    spans;
  List.sort
    (fun (_, (a, _)) (_, (b, _)) -> compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_layer [])

let self_time_table rows =
  let total = sum (List.map (fun (_, (t, _)) -> t) rows) in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "  %-10s %12s %8s %9s\n" "layer" "self ms" "share" "spans";
  List.iter
    (fun (layer, (t, n)) ->
      Printf.bprintf buf "  %-10s %12.2f %7.1f%% %9d\n" layer (t *. 1e3)
        (if total > 0.0 then 100.0 *. t /. total else 0.0)
        n)
    rows;
  Buffer.contents buf

(* Reset, run [f] with tracing on, and return its result with the spans it
   recorded on this process (pid 100 in merged traces). *)
let traced f =
  Obs.Span.reset ();
  Obs.enable ();
  let r = Fun.protect ~finally:Obs.disable f in
  (r, List.map (fun s -> (100, s)) (Obs.Span.spans ()))

(* Write the traced phase's spans as a Chrome trace under [ctx.out_dir],
   check it with the JSON validator, and render the self-time table.
   Returns the check failures and the table. *)
let emit_trace (ctx : ctx) ~workload ?(names = [ (100, "perfbench") ]) spans =
  mkdir_p ctx.out_dir;
  let doc = Obs.Export.merge_chrome ~names spans in
  let path =
    Filename.concat ctx.out_dir (Printf.sprintf "%s-seed%d.trace.json" workload ctx.seed)
  in
  write_file path doc;
  let errors =
    match Obs.Export.validate_json doc with
    | Ok () -> []
    | Error e -> [ Printf.sprintf "chrome trace %s is not valid JSON: %s" path e ]
  in
  let table = self_time_table (self_times spans) in
  write_file (Filename.concat ctx.out_dir (Printf.sprintf "%s-seed%d.self.txt" workload ctx.seed)) table;
  (errors, table)
