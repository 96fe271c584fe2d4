type mode = Deterministic | Domains of int

type error = Stopped

type t = {
  mode : mode;
  m : Mutex.t;
  nonempty : Condition.t;  (* workers: the queue gained a job, or stopping *)
  finished : Condition.t;
      (* map callers: one of their jobs completed, or a map queued jobs *)
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable escaped : exn option;  (* the first exception a job raised *)
  mutable domains : unit Domain.t list;
}

(* A raising job is confined to its slot; the pool keeps the first. *)
let run_job t job =
  try job ()
  with e ->
    Mutex.lock t.m;
    if t.escaped = None then t.escaped <- Some e;
    Mutex.unlock t.m

let rec worker t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.m
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.m (* stopping with an empty queue *)
  | Some job ->
    Mutex.unlock t.m;
    run_job t job;
    worker t

let create mode =
  (match mode with
  | Domains n when n < 1 -> invalid_arg "Pool.create: Domains n with n < 1"
  | Domains _ | Deterministic -> ());
  let t =
    {
      mode;
      m = Mutex.create ();
      nonempty = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      escaped = None;
      domains = [];
    }
  in
  (match mode with
  | Deterministic -> ()
  | Domains n -> t.domains <- List.init n (fun _ -> Domain.spawn (fun () -> worker t)));
  t

(* Admission under the lock: [false] once the pool is stopping.  Under
   [Domains] an admitted job is queued; under [Deterministic] the caller
   runs it. *)
let admit t job =
  Mutex.lock t.m;
  let open_ = not t.stopping in
  (match t.mode with
  | Domains _ when open_ ->
    Queue.push job t.queue;
    Condition.signal t.nonempty
  | Domains _ | Deterministic -> ());
  Mutex.unlock t.m;
  open_

let submit t job =
  if not (admit t job) then Error Stopped
  else begin
    if t.mode = Deterministic then run_job t job;
    Ok ()
  end

let map_result t f xs =
  let wrap x = match f x with v -> Ok v | exception e -> Error e in
  match t.mode with
  | Deterministic -> List.map wrap xs
  | Domains _ ->
    (* Jobs write their own slot and never raise, so a raising [f] cannot
       reach the pool's escaped slot or another caller. *)
    let results = Array.make (List.length xs) None in
    let remaining = ref (Array.length results) in
    List.iteri
      (fun i x ->
        let job () =
          let r = wrap x in
          Mutex.lock t.m;
          results.(i) <- Some r;
          decr remaining;
          if !remaining = 0 then Condition.broadcast t.finished;
          Mutex.unlock t.m
        in
        if not (admit t job) then invalid_arg "Pool.map: pool is shut down")
      xs;
    (* The caller helps: while its jobs are outstanding it runs queued
       jobs (its own or anyone's) and sleeps only on an empty queue, so a
       map issued from inside a job cannot starve for workers.  Other
       waiting map callers are woken to help with these jobs too. *)
    Mutex.lock t.m;
    Condition.broadcast t.finished;
    while !remaining > 0 && not t.stopping do
      match Queue.take_opt t.queue with
      | Some job ->
        Mutex.unlock t.m;
        run_job t job;
        Mutex.lock t.m
      | None -> Condition.wait t.finished t.m
    done;
    Mutex.unlock t.m;
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None ->
           (* only possible if a concurrent shutdown discarded the job *)
           Error (Invalid_argument "Pool.map: job did not complete"))

let map t f xs =
  List.map
    (function Ok y -> y | Error e -> raise e)
    (map_result t f xs)

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Queue.clear t.queue;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.finished;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.m;
  List.iter Domain.join ds;
  Mutex.lock t.m;
  let escaped = t.escaped in
  t.escaped <- None;
  Mutex.unlock t.m;
  Option.iter raise escaped
