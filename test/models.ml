(* One trained resource model per seed, shared by every test that needs
   it: training is the suite's most expensive fixture, so each seed
   trains once per run.  The lock keeps the memo safe should a fixture be
   forced from a worker domain. *)

module Predict = Overgen_mlp.Predict

let memo : (int, Predict.t) Hashtbl.t = Hashtbl.create 4
let lock = Mutex.create ()

(* Keep a model a test trained itself (to watch the training), unless the
   seed is trained already: training is deterministic, so either is the
   model [trained seed] would return. *)
let keep seed m =
  Mutex.protect lock (fun () ->
      if not (Hashtbl.mem memo seed) then Hashtbl.add memo seed m)

let trained seed =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt memo seed with
      | Some m -> m
      | None ->
        let m = Predict.train ~seed () in
        Hashtbl.add memo seed m;
        m)
