type mode = Deterministic | Domains of int

type error = Saturated | Stopped

type t = {
  mode : mode;
  queue_capacity : int;
  m : Mutex.t;
  nonempty : Condition.t;  (* workers: the queue gained a job *)
  not_full : Condition.t;  (* blocking submitters: the queue lost a job *)
  all_done : Condition.t;  (* drain: outstanding reached zero *)
  queue : (int * (unit -> unit)) Queue.t;  (* jobs with their submission number *)
  mutable submitted : int;
  mutable outstanding : int;  (* accepted, not yet completed *)
  mutable stopping : bool;
  mutable failed : (int * exn) list;  (* job exceptions by submission number,
                                          most recently recorded first *)
  mutable domains : unit Domain.t list;
}

let mode t = t.mode
let workers t = match t.mode with Deterministic -> 1 | Domains n -> n

let pending t =
  Mutex.lock t.m;
  let n = t.outstanding in
  Mutex.unlock t.m;
  n

let record_failure t seq e =
  Mutex.lock t.m;
  t.failed <- (seq, e) :: t.failed;
  Mutex.unlock t.m

(* Oldest submission first, whatever order concurrent workers finished in. *)
let failures t =
  Mutex.lock t.m;
  let es = List.sort (fun (a, _) (b, _) -> compare a b) t.failed in
  t.failed <- [];
  Mutex.unlock t.m;
  List.map snd es

(* Run one job (exceptions are held, not propagated) and mark it done. *)
let run_job t (seq, job) =
  (try job () with e -> record_failure t seq e);
  Mutex.lock t.m;
  t.outstanding <- t.outstanding - 1;
  if t.outstanding = 0 then Condition.broadcast t.all_done;
  Mutex.unlock t.m

let rec worker t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.m
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.m (* stopping with an empty queue *)
  | Some job ->
    Condition.signal t.not_full;
    Mutex.unlock t.m;
    run_job t job;
    worker t

let create ?(queue_capacity = 1024) mode =
  if queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity < 1";
  (match mode with
  | Domains n when n < 1 -> invalid_arg "Pool.create: Domains n with n < 1"
  | Domains _ | Deterministic -> ());
  let t =
    {
      mode;
      queue_capacity;
      m = Mutex.create ();
      nonempty = Condition.create ();
      not_full = Condition.create ();
      all_done = Condition.create ();
      queue = Queue.create ();
      submitted = 0;
      outstanding = 0;
      stopping = false;
      failed = [];
      domains = [];
    }
  in
  (match mode with
  | Deterministic -> ()
  | Domains n -> t.domains <- List.init n (fun _ -> Domain.spawn (fun () -> worker t)));
  t

let submit t job =
  Mutex.lock t.m;
  let r =
    if t.stopping then Error Stopped
    else if Queue.length t.queue >= t.queue_capacity then Error Saturated
    else begin
      Queue.push (t.submitted, job) t.queue;
      t.submitted <- t.submitted + 1;
      t.outstanding <- t.outstanding + 1;
      Condition.signal t.nonempty;
      Ok ()
    end
  in
  Mutex.unlock t.m;
  r

(* map's admission: block on the [not_full] condition instead of rejecting,
   so a batch larger than the queue bound still completes. *)
let submit_blocking t job =
  Mutex.lock t.m;
  while (not t.stopping) && Queue.length t.queue >= t.queue_capacity do
    Condition.wait t.not_full t.m
  done;
  if t.stopping then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.map: pool is shut down"
  end
  else begin
    Queue.push (t.submitted, job) t.queue;
    t.submitted <- t.submitted + 1;
    t.outstanding <- t.outstanding + 1;
    Condition.signal t.nonempty;
    Mutex.unlock t.m
  end

(* Complete every accepted job without touching the failure list. *)
let barrier t =
  match t.mode with
  | Domains _ ->
    Mutex.lock t.m;
    while t.outstanding > 0 do
      Condition.wait t.all_done t.m
    done;
    Mutex.unlock t.m
  | Deterministic ->
    let rec loop () =
      Mutex.lock t.m;
      match Queue.take_opt t.queue with
      | None -> Mutex.unlock t.m
      | Some job ->
        Mutex.unlock t.m;
        run_job t job;
        loop ()
    in
    loop ()

let drain_all t =
  barrier t;
  failures t

let drain t =
  match drain_all t with [] -> () | e :: _ -> raise e

let map_result t f xs =
  let wrap x = match f x with v -> Ok v | exception e -> Error e in
  match t.mode with
  | Deterministic -> List.map wrap xs
  | Domains _ ->
    (* Jobs catch into their own slot, so a raising [f] cannot pollute the
       pool-level failure list or be misattributed to another caller. *)
    let arr = Array.make (List.length xs) None in
    List.iteri (fun i x -> submit_blocking t (fun () -> arr.(i) <- Some (wrap x))) xs;
    barrier t;
    Array.to_list arr
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
  (* discard still-queued jobs; callers drain first to complete them *)
  let dropped = Queue.length t.queue in
  Queue.clear t.queue;
  t.outstanding <- t.outstanding - dropped;
  if t.outstanding = 0 then Condition.broadcast t.all_done;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.not_full;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.m;
  List.iter Domain.join ds
