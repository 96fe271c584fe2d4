(* The MLP golden table: for each model seed, every kind's held-out test
   error (as a hex float), a digest of the whole marshalled model, and the
   model's prediction for the general overlay's tile.  A change to dataset
   generation, initialisation, the training loop or the forward pass that
   moves a single bit of a weight shows up here. *)

open Overgen_adg
open Overgen_fpga
module Predict = Overgen_mlp.Predict

let seeds = [ 3; 7; 11; 21 ]
let kinds = List.map fst Predict.default_counts

let kind_label = function
  | Predict.Pe_k -> "pe"
  | Predict.Switch_k -> "switch"
  | Predict.In_port_k -> "in-port"
  | Predict.Out_port_k -> "out-port"

let golden_rows () =
  let tile = (Builder.general_overlay ()).adg in
  List.concat_map
    (fun seed ->
      let m = Models.trained seed in
      let r = Predict.predict_accel m tile in
      List.map
        (fun k ->
          Printf.sprintf "%d/%s\t%h" seed (kind_label k) (Predict.test_error m k))
        kinds
      @ [
          Printf.sprintf "%d/marshal\t%s" seed
            (Digest.to_hex (Digest.string (Marshal.to_string m [])));
          Printf.sprintf "%d/general-tile\t%d %d %d %d" seed r.Res.lut r.ff r.bram
            r.dsp;
        ])
    seeds

(* Regenerate with OVERGEN_MLP_GOLDEN_OUT=<file> dune test, then copy the
   file over test/mlp-golden.tsv — only when a change to the trained
   weights is intended. *)
let test_mlp_golden_table () =
  Golden.check ~file:"mlp-golden.tsv" ~regen_var:"OVERGEN_MLP_GOLDEN_OUT"
    ~header:
      "# <seed>/<kind>\ttest error (%h)\n\
       # <seed>/marshal\tMD5 of the marshalled Predict.t\n\
       # <seed>/general-tile\tpredict_accel of the general overlay's tile: \
       lut ff bram dsp\n"
    (golden_rows ())

let tests = [ Alcotest.test_case "mlp golden table" `Slow test_mlp_golden_table ]
