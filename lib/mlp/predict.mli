(** The ML-based FPGA resource model of paper Section V-D.

    One MLP per hardware-unit kind (processing element, switch, input port,
    output port), trained on out-of-context synthesis samples produced by the
    oracle, with an 80/10/10 train/validation/test split.  Stream engines
    have few parameters and are priced analytically (the paper exhaustively
    synthesizes such units).  Because training data is out-of-context, the
    model is pessimistic relative to full-design synthesis — exactly the bias
    the paper reports. *)

open Overgen_adg
open Overgen_fpga

type t

type kind = Pe_k | Switch_k | In_port_k | Out_port_k

val kind_name : kind -> string

val paper_counts : (kind * int) list
(** Paper Table I: modules synthesized per kind (100,000 / 56,700 / 34,412 /
    25,796). *)

val default_counts : (kind * int) list
(** The scaled-down counts actually synthesized here (1/100 of Table I), so
    training completes in seconds; recorded in EXPERIMENTS.md.
    For tests: the tests pin the per-kind models trained at these counts. *)

val train : seed:int -> unit -> t
(** Generate the dataset with the oracle and train all four models, the
    kinds concurrently on two domains.  The result does not depend on
    scheduling: each kind draws from its own seeded RNG. *)

type memo
(** Per node id, the last prediction made for that node with the
    component and degrees it was made for.  An entry is reused only while
    the node's [Comp.t] is physically the same (the ADG is persistent, so
    a move leaves untouched components shared) and, for a PE or switch
    (the kinds whose models read them), its in- and out-degree are
    unchanged; anything else is predicted afresh and replaces it.
    Mutable and unsynchronized: one memo per domain and per model, never
    shared. *)

val memo : unit -> memo
(** An empty memo. *)

val predict_comp : t -> Comp.t -> fan_in:int -> fan_out:int -> Res.t
(** Resource prediction for one component.
    For tests: the tests probe the model on single components. *)

val predict_accel : ?memo:memo -> t -> Adg.t -> Res.t
(** Predicted resources of one accelerator tile (MLP for datapath units,
    analytic for engines and the dispatcher).  With [memo], only the
    components whose entry does not match are predicted, so a call after a
    move costs about what the move changed; the result is bit-identical
    either way.  The DSE keeps one memo per island: successive designs
    share almost every component. *)

val predict_full : t -> Sys_adg.t -> Res.t
(** Predicted whole-SoC resources: tiles + cores + NoC + L2 + shell.  Used
    by the DSE as the resource constraint; pessimistic vs [Oracle.synth_full]. *)

val test_error : t -> kind -> float
(** Mean relative LUT error on the held-out test split. *)

val samples_trained : t -> kind -> int
