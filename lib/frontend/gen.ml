(* Seeded generator of random well-typed loop-nest kernels, used to fuzz
   the emit -> parse -> compile -> schedule -> simulate pipeline.  Every
   draw comes from an explicit Rng stream (never wall-clock), so a seed
   reproduces its kernel bit for bit; a coverage map over the grammar
   productions proves the generator actually exercises the dialect.

   Invariants the generator maintains (so a generated kernel is a legal
   frontend input and round-trips structurally):
   - subscripts reach index >= 0 at every point of the iteration space: a
     term with a negative coefficient is offset by a constant at least as
     large as its reach, and arrays are sized past the conservative
     maximum of every subscript that touches them;
   - [Store (r, Binop (op, Load r, e))] is canonicalized to
     [Accum (r, op, e)] exactly as the parser does;
   - scalar parameter and reduction-target names are disjoint pools;
   - only loads are indirect, with the index array drawn from its own
     name pool. *)

open Overgen_workload
module Op = Overgen_adg.Op
module Dtype = Overgen_adg.Dtype
module Rng = Overgen_util.Rng

module Cov = struct
  type t = (string, unit) Hashtbl.t

  let productions =
    [
      "dtype.int";
      "dtype.float";
      "kernel.plain";
      "kernel.tuned";
      "flag.window_reuse";
      "flag.broadcast";
      "region.single";
      "region.multi";
      "nest.depth1";
      "nest.depth2";
      "nest.depth3";
      "loop.fixed";
      "loop.triangular";
      "hls.clean";
      "hls.variable_trip";
      "hls.strided";
      "stmt.store";
      "stmt.accum";
      "stmt.reduce";
      "index.direct";
      "index.indirect";
      "affine.multi-term";
      "affine.negative-coeff";
      "affine.const-only";
      "expr.load";
      "expr.const";
      "expr.param";
      "expr.unop";
      "expr.binop";
      "const.negative";
      "const.fractional";
      "op.arith";
      "op.minmax";
      "op.bitwise";
      "op.shift";
      "op.compare";
    ]

  let create () : t = Hashtbl.create 64
  let hit t p = Hashtbl.replace t p ()
  let missing t = List.filter (fun p -> not (Hashtbl.mem t p)) productions

  let fraction t =
    let n = List.length productions in
    float_of_int (n - List.length (missing t)) /. float_of_int n
end

let array_pool = [ "a"; "b"; "c"; "d"; "w" ]
let idx_pool = [ "t" ]
let param_pool = [ "p"; "q" ]
let reduce_pool = [ "acc"; "tot" ]
let var_pool = [ "i"; "j"; "k" ]

let take n l = List.filteri (fun i _ -> i < n) l

(* ------------------------------------------------------------------ *)
(* Affine subscripts                                                   *)
(* ------------------------------------------------------------------ *)

let trip_of ~(loops : Ir.loop list) v =
  Ir.trip_max (List.find (fun (l : Ir.loop) -> l.var = v) loops).trip

(* minimum-zero affine: a negative coefficient's full reach is offset in
   the constant, so the subscript can never go below zero *)
let gen_affine cov rng ~(loops : Ir.loop list) =
  let nterms = Rng.choose rng [ 0; 1; 1; 1; 1; 2; 2 ] in
  let nterms = min nterms (List.length loops) in
  let chosen = take nterms (Rng.shuffle rng loops) in
  let terms =
    List.map
      (fun (l : Ir.loop) -> (l.var, Rng.choose rng [ 1; 1; 1; 1; 2; 3; -1; -2 ]))
      chosen
  in
  let neg_reach =
    List.fold_left
      (fun s (v, c) -> if c < 0 then s + (-c * (trip_of ~loops v - 1)) else s)
      0 terms
  in
  let const = neg_reach + Rng.int rng 4 in
  if terms = [] then Cov.hit cov "affine.const-only";
  if List.length terms > 1 then Cov.hit cov "affine.multi-term";
  if List.exists (fun (_, c) -> c < 0) terms then
    Cov.hit cov "affine.negative-coeff";
  Ir.affine ~const terms

let gen_target cov rng ~loops ~arrays =
  Cov.hit cov "index.direct";
  { Ir.array = Rng.choose rng arrays; index = Ir.Direct (gen_affine cov rng ~loops) }

let gen_load_ref cov rng ~loops ~arrays =
  if Rng.float rng 1.0 < 0.15 then begin
    Cov.hit cov "index.indirect";
    {
      Ir.array = Rng.choose rng arrays;
      index =
        Ir.Indirect
          { idx_array = List.hd idx_pool; at = gen_affine cov rng ~loops };
    }
  end
  else gen_target cov rng ~loops ~arrays

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let gen_const cov rng ~is_float =
  let f =
    if is_float && Rng.float rng 1.0 < 0.5 then
      Rng.choose rng [ 0.5; 1.5; 2.5; 0.125; 3.75; 0.25 ]
    else float_of_int (1 + Rng.int rng 9)
  in
  let f = if Rng.float rng 1.0 < 0.3 then -.f else f in
  if f < 0.0 then Cov.hit cov "const.negative";
  if Float.is_integer f |> not then Cov.hit cov "const.fractional";
  Ir.Const f

let gen_binop cov rng ~is_float =
  let category =
    if is_float then
      Rng.choose_weighted rng
        [ (0.55, `Arith); (0.25, `Minmax); (0.2, `Compare) ]
    else
      Rng.choose_weighted rng
        [
          (0.4, `Arith);
          (0.15, `Minmax);
          (0.2, `Bitwise);
          (0.15, `Shift);
          (0.1, `Compare);
        ]
  in
  match category with
  | `Arith ->
    Cov.hit cov "op.arith";
    Rng.choose rng [ Op.Add; Op.Add; Op.Sub; Op.Mul; Op.Div ]
  | `Minmax ->
    Cov.hit cov "op.minmax";
    Rng.choose rng [ Op.Min; Op.Max ]
  | `Bitwise ->
    Cov.hit cov "op.bitwise";
    Rng.choose rng [ Op.Band; Op.Bor; Op.Bxor ]
  | `Shift ->
    Cov.hit cov "op.shift";
    Rng.choose rng [ Op.Shl; Op.Shr ]
  | `Compare ->
    Cov.hit cov "op.compare";
    Rng.choose rng [ Op.Cmp_lt; Op.Cmp_eq ]

let rec gen_expr cov rng ~depth ~is_float ~loops ~arrays =
  let leaf () =
    match Rng.choose_weighted rng [ (0.55, `Load); (0.25, `Const); (0.2, `Param) ] with
    | `Load ->
      Cov.hit cov "expr.load";
      Ir.Load (gen_load_ref cov rng ~loops ~arrays)
    | `Const ->
      Cov.hit cov "expr.const";
      gen_const cov rng ~is_float
    | `Param ->
      Cov.hit cov "expr.param";
      Ir.Param (Rng.choose rng param_pool)
  in
  if depth >= 3 || Rng.float rng 1.0 < 0.35 then leaf ()
  else if Rng.float rng 1.0 < 0.2 then begin
    Cov.hit cov "expr.unop";
    let op = if is_float then Rng.choose rng [ Op.Sqrt; Op.Abs ] else Op.Abs in
    Ir.Unop (op, gen_expr cov rng ~depth:(depth + 1) ~is_float ~loops ~arrays)
  end
  else begin
    Cov.hit cov "expr.binop";
    let op = gen_binop cov rng ~is_float in
    let lhs = gen_expr cov rng ~depth:(depth + 1) ~is_float ~loops ~arrays in
    let rhs =
      match op with
      (* keep shift amounts small, literal and non-negative *)
      | Op.Shl | Op.Shr -> Ir.Const (float_of_int (1 + Rng.int rng 3))
      | _ -> gen_expr cov rng ~depth:(depth + 1) ~is_float ~loops ~arrays
    in
    Ir.Binop (op, lhs, rhs)
  end

(* ------------------------------------------------------------------ *)
(* Statements, loops, regions                                          *)
(* ------------------------------------------------------------------ *)

let rmw_ops = [ Op.Add; Op.Add; Op.Sub; Op.Mul; Op.Min; Op.Max ]

let gen_stmt cov rng ~is_float ~loops ~arrays =
  match
    Rng.choose_weighted rng [ (0.45, `Store); (0.35, `Accum); (0.2, `Reduce) ]
  with
  | `Store -> (
    let r = gen_target cov rng ~loops ~arrays in
    let e = gen_expr cov rng ~depth:0 ~is_float ~loops ~arrays in
    (* the parser's canonicalization, applied at generation time *)
    let idiom = function
      | Op.Add | Op.Sub | Op.Mul | Op.Min | Op.Max -> true
      | _ -> false
    in
    match e with
    | Ir.Binop (op, Ir.Load r', e') when idiom op && Ir.aref_equal r r' ->
      Cov.hit cov "stmt.accum";
      Ir.Accum (r, op, e')
    | _ ->
      Cov.hit cov "stmt.store";
      Ir.Store (r, e))
  | `Accum ->
    Cov.hit cov "stmt.accum";
    let r = gen_target cov rng ~loops ~arrays in
    Ir.Accum
      (r, Rng.choose rng rmw_ops, gen_expr cov rng ~depth:0 ~is_float ~loops ~arrays)
  | `Reduce ->
    Cov.hit cov "stmt.reduce";
    Ir.Reduce
      ( Rng.choose rng reduce_pool,
        Rng.choose rng rmw_ops,
        gen_expr cov rng ~depth:0 ~is_float ~loops ~arrays )

let gen_loops cov rng =
  let depth = Rng.choose_weighted rng [ (0.3, 1); (0.4, 2); (0.3, 3) ] in
  Cov.hit cov (Printf.sprintf "nest.depth%d" depth);
  List.mapi
    (fun i v ->
      let trip =
        if i > 0 && Rng.float rng 1.0 < 0.35 then begin
          Cov.hit cov "loop.triangular";
          Ir.Triangular (2 + Rng.int rng 5)
        end
        else begin
          Cov.hit cov "loop.fixed";
          Ir.Fixed (2 + Rng.int rng 7)
        end
      in
      { Ir.var = v; trip })
    (take depth var_pool)

let gen_hls cov rng =
  match
    Rng.choose_weighted rng [ (0.5, `Clean); (0.3, `Vt); (0.2, `Strided) ]
  with
  | `Clean ->
    Cov.hit cov "hls.clean";
    Ir.Clean
  | `Vt ->
    Cov.hit cov "hls.variable_trip";
    let tuned_ii = 1 + Rng.int rng 4 in
    Ir.Variable_trip { untuned_ii = tuned_ii + Rng.int rng 8; tuned_ii }
  | `Strided ->
    Cov.hit cov "hls.strided";
    Ir.Strided { untuned_ii = 2 + Rng.int rng 8 }

let gen_region cov rng ~is_float ~arrays ~rname =
  let loops = gen_loops cov rng in
  let nstmts = 1 + Rng.int rng 3 in
  {
    Ir.rname;
    loops;
    body = List.init nstmts (fun _ -> gen_stmt cov rng ~is_float ~loops ~arrays);
    hls = gen_hls cov rng;
  }

(* ------------------------------------------------------------------ *)
(* Array sizing                                                        *)
(* ------------------------------------------------------------------ *)

(* conservative per-array maximum subscript over every region that will
   be emitted (main and tuned): honoring this bound makes the frontend's
   exact bounds enumeration trivially succeed *)
let size_arrays rng (regions : Ir.region list) =
  let need = Hashtbl.create 8 in
  let note arr v =
    Hashtbl.replace need arr (max v (Option.value ~default:0 (Hashtbl.find_opt need arr)))
  in
  List.iter
    (fun (r : Ir.region) ->
      let reach (a : Ir.affine) =
        List.fold_left
          (fun s (v, c) ->
            if c > 0 then s + (c * (trip_of ~loops:r.loops v - 1)) else s)
          a.const a.terms
      in
      let note_ref (ar : Ir.aref) =
        match ar.index with
        | Ir.Direct a -> note ar.array (reach a)
        | Ir.Indirect { idx_array; at } ->
          note idx_array (reach at);
          (* index arrays are zero-initialized in the emitted C, so only
             element 0 of the target is ever dereferenced at runtime;
             still give it honest room *)
          note ar.array 7
      in
      List.iter
        (fun st ->
          Option.iter note_ref (Ir.stmt_store st);
          List.iter note_ref (Ir.stmt_loads st))
        r.body)
    regions;
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt need name with
      | None -> None
      | Some m -> Some (name, m + 1 + Rng.int rng 4))
    (array_pool @ idx_pool)

(* ------------------------------------------------------------------ *)
(* Whole kernels                                                       *)
(* ------------------------------------------------------------------ *)

let dtypes =
  [ Dtype.I8; Dtype.I16; Dtype.I32; Dtype.I64; Dtype.F32; Dtype.F64 ]

let kernel ~cov rng =
  let dtype = Rng.choose rng dtypes in
  let is_float = Dtype.is_float dtype in
  Cov.hit cov (if is_float then "dtype.float" else "dtype.int");
  let arrays_in_use = take (1 + Rng.int rng 3) array_pool in
  let nregions = if Rng.float rng 1.0 < 0.35 then 2 else 1 in
  Cov.hit cov (if nregions = 1 then "region.single" else "region.multi");
  let regions =
    List.init nregions (fun i ->
        gen_region cov rng ~is_float ~arrays:arrays_in_use
          ~rname:(Printf.sprintf "r%d" i))
  in
  let og_tuning =
    if Rng.float rng 1.0 < 0.3 then begin
      Cov.hit cov "kernel.tuned";
      Some
        {
          Ir.desc = Rng.choose rng [ "peel outer"; "unroll 2x2"; "swap streams" ];
          regions =
            [ gen_region cov rng ~is_float ~arrays:arrays_in_use ~rname:"t0" ];
        }
    end
    else begin
      Cov.hit cov "kernel.plain";
      None
    end
  in
  let all_regions =
    regions @ match og_tuning with Some t -> t.Ir.regions | None -> []
  in
  let window_reuse = Rng.float rng 1.0 < 0.25 in
  if window_reuse then Cov.hit cov "flag.window_reuse";
  let needs_broadcast = Rng.float rng 1.0 < 0.2 in
  if needs_broadcast then Cov.hit cov "flag.broadcast";
  {
    Ir.name = Printf.sprintf "fz%04d" (Rng.int rng 10000);
    suite = Rng.choose rng [ Suite.Dsp; Suite.Machsuite; Suite.Vision ];
    dtype;
    lanes = (if Rng.float rng 1.0 < 0.15 then 2 else 1);
    arrays = size_arrays rng all_regions;
    size_desc = Rng.choose rng [ "fuzz"; "8"; "8x8"; "4^2" ];
    regions;
    og_tuning;
    window_reuse;
    needs_broadcast;
  }
