(* Deficit round-robin over per-tenant FIFOs, unit cost per request.

   Classic DRR specialized to cost 1: each tenant carries a deficit
   counter and a FIFO; active (non-empty) tenants sit in a ring.  When a
   tenant reaches the head of the ring with no deficit it is replenished
   by its weight in place, then serves until the deficit runs out or its
   FIFO empties, then rotates to the back (deficit resets on empty, so
   credit never accumulates across idle periods).  Over any interval in
   which a set of tenants stays backlogged, tenant [i] receives exactly
   [weight_i] services per ring round — shares converge to
   [weight_i / sum weights] with error bounded by one round.

   Not thread-safe: {!Admission} serializes access under its own lock,
   and the property tests drive it single-threaded. *)

type 'a tenant_q = {
  id : string;
  weight : int;
  q : 'a Queue.t;
  mutable deficit : int;
  mutable active : bool;  (* in the ring *)
}

type 'a t = {
  tbl : (string, 'a tenant_q) Hashtbl.t;
  ring : string Queue.t;  (* active tenants, head = current *)
  mutable size : int;
}

let create () = { tbl = Hashtbl.create 8; ring = Queue.create (); size = 0 }

let add_tenant t ~id ~weight =
  if weight < 1 then invalid_arg "Drr.add_tenant: weight < 1";
  match Hashtbl.find_opt t.tbl id with
  | Some tq ->
    if tq.weight <> weight then
      invalid_arg
        (Printf.sprintf "Drr.add_tenant: %s re-registered with weight %d <> %d"
           id weight tq.weight)
  | None ->
    Hashtbl.add t.tbl id
      { id; weight; q = Queue.create (); deficit = 0; active = false }

let length t = t.size

let enqueue t ~id x =
  match Hashtbl.find_opt t.tbl id with
  | None -> invalid_arg (Printf.sprintf "Drr.enqueue: unknown tenant %s" id)
  | Some tq ->
    Queue.push x tq.q;
    t.size <- t.size + 1;
    if not tq.active then begin
      (* (re)activation starts with no credit: rejoin at the back and
         earn the quantum on reaching the head *)
      tq.active <- true;
      tq.deficit <- 0;
      Queue.push id t.ring
    end

(* The head-of-ring tenant with a non-empty FIFO and deficit >= 1,
   replenishing in place when the head's credit ran out.  Every visited
   head either serves or leaves the ring, so this terminates within one
   ring pass. *)
let rec select t =
  if Queue.is_empty t.ring then None
  else begin
    let id = Queue.peek t.ring in
    let tq = Hashtbl.find t.tbl id in
    if Queue.is_empty tq.q then begin
      (* drained while rotated out of turn: deactivate *)
      ignore (Queue.pop t.ring);
      tq.active <- false;
      tq.deficit <- 0;
      select t
    end
    else begin
      if tq.deficit < 1 then tq.deficit <- tq.deficit + tq.weight;
      Some tq
    end
  end

(* After serving [tq] (still at the ring head): rotate or deactivate. *)
let settle t tq =
  if Queue.is_empty tq.q then begin
    ignore (Queue.pop t.ring);
    tq.active <- false;
    tq.deficit <- 0
  end
  else if tq.deficit = 0 then begin
    ignore (Queue.pop t.ring);
    Queue.push tq.id t.ring
  end

let serve t tq =
  let x = Queue.pop tq.q in
  t.size <- t.size - 1;
  tq.deficit <- tq.deficit - 1;
  x

let dequeue_batch t ~max ~same =
  if max < 1 then invalid_arg "Drr.dequeue_batch: max < 1";
  match select t with
  | None -> []
  | Some tq ->
    let first = serve t tq in
    let rec grow acc n =
      if
        n >= max || tq.deficit < 1
        || Queue.is_empty tq.q
        || not (same first (Queue.peek tq.q))
      then List.rev acc
      else grow (serve t tq :: acc) (n + 1)
    in
    let batch = grow [ first ] 1 in
    settle t tq;
    batch
