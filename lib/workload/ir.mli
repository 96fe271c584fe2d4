(** The affine loop-nest intermediate representation.

    Kernels are perfect (or triangular) loop nests with constant trip counts
    over restrict-qualified arrays — exactly the program class the OverGen
    pragmas delimit ([#pragma dsa config] / [#pragma dsa decouple]).  The
    decoupled-spatial compiler ({!Overgen_mdfg}) slices a region's body into
    compute instructions and memory streams, and the reuse analysis of paper
    Section IV-B is computed from the affine indices and trip counts here. *)

open Overgen_adg

(** Affine expression over loop induction variables: [sum coeff*var + const],
    in units of array {e elements}. *)
type affine = { terms : (string * int) list; const : int }

val affine : ?const:int -> (string * int) list -> affine
val affine_const : int -> affine
val affine_vars : affine -> string list
(** Variables with non-zero coefficient. *)

val affine_coeff : affine -> string -> int
val affine_shift : affine -> int -> affine
(** Add a constant offset. *)

val affine_subst_scaled : affine -> var:string -> scale:int -> offset:int -> affine
(** [affine_subst_scaled a ~var ~scale ~offset] rewrites occurrences of [var]
    as [scale*var + offset]; this is how unrolling by [scale] re-indexes the
    lane at position [offset]. *)

val affine_equal : affine -> affine -> bool
(** For tests: the tests compare substituted subscripts structurally. *)

val affine_render : sep_plus:string -> sep_minus:string -> affine -> string
(** Canonical rendering: negative coefficients/constants join with the
    minus separator (["2*i - 3"], never ["2*i + -3"]), a leading negative
    term renders as ["-j"].  [affine_to_string] is the compact
    (["+"]/["-"]) instance; {!C_source} uses the spaced one. *)

val affine_to_string : affine -> string
(** For tests: the tests pin the compact rendering the C emitter relies on. *)

(** Array subscript: direct affine, or single-level indirect [a\[b\[e\]\]]. *)
type index = Direct of affine | Indirect of { idx_array : string; at : affine }

type aref = { array : string; index : index }

val aref_equal : aref -> aref -> bool

val add_aref : Buffer.t -> aref -> unit
(** Append the compact rendering of a reference to the buffer:
    ["a[2*i-1]"], ["x[idx[i]]"]. *)

type expr =
  | Load of aref
  | Const of float
  | Param of string  (** scalar kernel parameter kept in a PE constant reg *)
  | Unop of Op.t * expr
  | Binop of Op.t * expr * expr

type stmt =
  | Store of aref * expr
  | Accum of aref * Op.t * expr
      (** [a\[i\] <op>= e]: read-modify-write carried across a reduction
          loop; candidate for the recurrence stream engine. *)
  | Reduce of string * Op.t * expr
      (** scalar reduction collected through the register engine *)

(** Trip count of one loop level. *)
type trip =
  | Fixed of int
  | Triangular of int
      (** bound depends on an outer induction variable; max [n], average
          [n/2] — the "variable loop trip count" pattern of paper Q2 *)

val trip_max : trip -> int
val trip_avg : trip -> float

type loop = { var : string; trip : trip }

(** How a state-of-the-art HLS toolchain fares on this region's code pattern
    before/after manual kernel tuning (paper Table IV). *)
type hls_pattern =
  | Clean  (** II = 1 out of the box *)
  | Variable_trip of { untuned_ii : int; tuned_ii : int }
  | Strided of { untuned_ii : int }  (** tuning restores II = 1 *)

type region = {
  rname : string;
  loops : loop list;  (** outermost first; innermost is the vectorized one *)
  body : stmt list;
  hls : hls_pattern;
}

type tuning = { desc : string; regions : region list }

type kernel = {
  name : string;
  suite : Suite.t;
  dtype : Dtype.t;
  lanes : int;  (** elements packed per logical value (fft is f32x2) *)
  arrays : (string * int) list;  (** name, element count *)
  size_desc : string;  (** Table II "Size" column *)
  regions : region list;
  og_tuning : tuning option;
      (** OverGen-side manual kernel tuning (Q2): peeling, multi-dim unroll *)
  window_reuse : bool;
      (** sliding-window kernels where HLS line buffers excel (Q1 outliers) *)
  needs_broadcast : bool;
      (** kernels needing DRAM->all-scratchpad broadcast (ellpack outlier) *)
}

val stmt_loads : stmt -> aref list
(** Loads including the implicit read of an [Accum] target. *)

val stmt_store : stmt -> aref option

val region_arrays : region -> string list
(** Arrays touched by the region, without duplicates.
    For tests: the tests check every kernel declares every array its regions
    touch. *)

val innermost : region -> loop
(** @raise Invalid_argument on a region with no loops. *)

val float_literal : float -> string
(** Shortest decimal spelling that reads back to the same float, always
    carrying a ['.'], an exponent or a special-value name. *)

val const_to_string : float -> string
(** Integer spelling for exactly-representable integer values (|f| < 2^53,
    guarding [int_of_float] beyond that), {!float_literal} otherwise. *)

val pretty : kernel -> string
(** Pseudo-C rendering with the dsa pragmas, for documentation output. *)
