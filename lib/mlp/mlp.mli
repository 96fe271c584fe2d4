(** A small multi-layer perceptron trained with SGD + momentum.

    The paper's FPGA resource model is a 3-layer MLP per component type,
    trained on out-of-context synthesis results with an 80/10/10 split
    (Section V-D).  Hidden layers use ReLU; the output layer is linear. *)

type t

val create : rng:Overgen_util.Rng.t -> layers:int list -> t
(** [create ~rng ~layers:[n_in; h1; ...; n_out]] with He-initialized
    weights.  @raise Invalid_argument on fewer than two layers. *)

val forward : t -> float array -> float array
(** The network's output for one input.
    @raise Invalid_argument if the input's width is not {!n_inputs}. *)

val train :
  t ->
  rng:Overgen_util.Rng.t ->
  rate:float ->
  epochs:int ->
  (float array * float array) list ->
  unit
(** In-place minibatch-1 SGD over shuffled samples, mean-squared-error.
    Each epoch visits the samples in a fresh [Rng.shuffle] of their
    original order.  Activations and deltas live in buffers allocated once
    per call, so a training step allocates nothing.
    @raise Invalid_argument before any weight changes if a sample's input
    or target width is not {!n_inputs} or {!n_outputs}. *)

val loss : t -> (float array * float array) list -> float
(** Mean squared error over a dataset.
    For tests: the training-set error tests bound to show training converges;
    training itself never evaluates it. *)

(** Per-dimension min-max feature/target scaling, fit on the training set. *)
module Scaler : sig
  type s

  val fit : float array list -> s
  (** Per-column minima and maxima.
      @raise Invalid_argument on an empty list or rows of unequal width. *)

  val apply : s -> float array -> float array
  val unapply : s -> float array -> float array
end
