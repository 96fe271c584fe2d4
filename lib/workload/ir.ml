open Overgen_adg

type affine = { terms : (string * int) list; const : int }

let normalize_terms terms =
  terms
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let affine ?(const = 0) terms = { terms = normalize_terms terms; const }
let affine_const const = { terms = []; const }
let affine_vars a = List.map fst a.terms

let affine_coeff a var =
  match List.assoc_opt var a.terms with Some c -> c | None -> 0

let affine_shift a off = { a with const = a.const + off }

let affine_subst_scaled a ~var ~scale ~offset =
  let c = affine_coeff a var in
  if c = 0 then a
  else
    let terms = (var, c * scale) :: List.remove_assoc var a.terms in
    { terms = normalize_terms terms; const = a.const + (c * offset) }

let affine_equal a b = a.terms = b.terms && a.const = b.const

(* Canonical affine rendering, appended to [buf]: negative coefficients
   and constants join with a proper [-] separator (never "i+-3"), so
   printed forms re-parse to equal values.  [sep_plus]/[sep_minus] let
   callers pick compact ("+"/"-") or spaced (" + "/" - ") style. *)
let add_affine buf ~sep_plus ~sep_minus a =
  let start = Buffer.length buf in
  let sign negative =
    if Buffer.length buf = start then begin
      if negative then Buffer.add_char buf '-'
    end
    else Buffer.add_string buf (if negative then sep_minus else sep_plus)
  in
  List.iter
    (fun (v, c) ->
      sign (c < 0);
      if abs c <> 1 then begin
        Overgen_util.Append.int buf (abs c);
        Buffer.add_char buf '*'
      end;
      Buffer.add_string buf v)
    a.terms;
  if a.const <> 0 then begin
    sign (a.const < 0);
    Overgen_util.Append.int buf (abs a.const)
  end;
  if Buffer.length buf = start then Buffer.add_char buf '0'

let affine_render ~sep_plus ~sep_minus a =
  let buf = Buffer.create 16 in
  add_affine buf ~sep_plus ~sep_minus a;
  Buffer.contents buf

let affine_to_string = affine_render ~sep_plus:"+" ~sep_minus:"-"

type index = Direct of affine | Indirect of { idx_array : string; at : affine }

type aref = { array : string; index : index }

let aref_equal a b =
  a.array = b.array
  &&
  match (a.index, b.index) with
  | Direct x, Direct y -> affine_equal x y
  | Indirect x, Indirect y -> x.idx_array = y.idx_array && affine_equal x.at y.at
  | Direct _, Indirect _ | Indirect _, Direct _ -> false

let add_aref buf r =
  Buffer.add_string buf r.array;
  Buffer.add_char buf '[';
  (match r.index with
  | Direct a -> add_affine buf ~sep_plus:"+" ~sep_minus:"-" a
  | Indirect { idx_array; at } ->
    Buffer.add_string buf idx_array;
    Buffer.add_char buf '[';
    add_affine buf ~sep_plus:"+" ~sep_minus:"-" at;
    Buffer.add_char buf ']');
  Buffer.add_char buf ']'

let aref_to_string r =
  let buf = Buffer.create 16 in
  add_aref buf r;
  Buffer.contents buf

type expr =
  | Load of aref
  | Const of float
  | Param of string
  | Unop of Op.t * expr
  | Binop of Op.t * expr * expr

type stmt =
  | Store of aref * expr
  | Accum of aref * Op.t * expr
  | Reduce of string * Op.t * expr

type trip = Fixed of int | Triangular of int

let trip_max = function Fixed n -> n | Triangular n -> n
let trip_avg = function
  | Fixed n -> float_of_int n
  | Triangular n -> float_of_int n /. 2.0

type loop = { var : string; trip : trip }

type hls_pattern =
  | Clean
  | Variable_trip of { untuned_ii : int; tuned_ii : int }
  | Strided of { untuned_ii : int }

type region = {
  rname : string;
  loops : loop list;
  body : stmt list;
  hls : hls_pattern;
}

type tuning = { desc : string; regions : region list }

type kernel = {
  name : string;
  suite : Suite.t;
  dtype : Dtype.t;
  lanes : int;
  arrays : (string * int) list;
  size_desc : string;
  regions : region list;
  og_tuning : tuning option;
  window_reuse : bool;
  needs_broadcast : bool;
}

let rec loads_of_expr = function
  | Load r -> [ r ]
  | Const _ | Param _ -> []
  | Unop (_, e) -> loads_of_expr e
  | Binop (_, a, b) -> loads_of_expr a @ loads_of_expr b

let stmt_loads = function
  | Store (_, e) -> loads_of_expr e
  | Accum (r, _, e) -> r :: loads_of_expr e
  | Reduce (_, _, e) -> loads_of_expr e

let stmt_store = function
  | Store (r, _) | Accum (r, _, _) -> Some r
  | Reduce (_, _, _) -> None

let region_arrays r =
  let arrays =
    List.concat_map
      (fun s ->
        let loads = List.map (fun (a : aref) -> a.array) (stmt_loads s) in
        let idx_arrays =
          List.filter_map
            (fun (a : aref) ->
              match a.index with
              | Indirect { idx_array; _ } -> Some idx_array
              | Direct _ -> None)
            (stmt_loads s)
        in
        let stores =
          match stmt_store s with Some a -> [ a.array ] | None -> []
        in
        loads @ idx_arrays @ stores)
      r.body
  in
  List.sort_uniq String.compare arrays

let innermost r =
  match List.rev r.loops with
  | [] -> invalid_arg "Ir.innermost: region with no loops"
  | l :: _ -> l

(* Magnitude bound under which an integer-valued float is exactly
   representable and [int]-rendering is faithful: 2^53.  Beyond it
   [int_of_float] is lossy (and undefined past [max_int]), so huge
   integer-valued constants keep their float spelling. *)
let max_exact_int_float = 9007199254740992.0

(* Shortest decimal spelling that reads back to the same float, always
   carrying a '.', an exponent or a special-value name so it cannot be
   mistaken for an integer literal. *)
let float_literal f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ ".0"

let const_to_string f =
  if Float.is_integer f && Float.abs f < max_exact_int_float then
    Printf.sprintf "%.0f" f
  else float_literal f

let rec pretty_expr = function
  | Load r -> aref_to_string r
  | Const f -> const_to_string f
  | Param p -> p
  | Unop (op, e) -> Printf.sprintf "%s(%s)" (Op.to_string op) (pretty_expr e)
  | Binop (op, a, b) ->
    let sym =
      match op with
      | Op.Add -> "+"
      | Op.Sub -> "-"
      | Op.Mul -> "*"
      | Op.Div -> "/"
      | Op.Shl -> "<<"
      | Op.Shr -> ">>"
      | Op.Band -> "&"
      | Op.Bor -> "|"
      | Op.Bxor -> "^"
      | Op.Cmp_lt -> "<"
      | Op.Cmp_eq -> "=="
      | Op.Sqrt | Op.Min | Op.Max | Op.Abs | Op.Select | Op.Acc ->
        Op.to_string op
    in
    (match op with
     | Op.Min | Op.Max ->
       Printf.sprintf "%s(%s, %s)" sym (pretty_expr a) (pretty_expr b)
     | _ -> Printf.sprintf "(%s %s %s)" (pretty_expr a) sym (pretty_expr b))

let pretty_stmt ind s =
  let pad = String.make ind ' ' in
  match s with
  | Store (r, e) -> Printf.sprintf "%s%s = %s;" pad (aref_to_string r) (pretty_expr e)
  | Accum (r, op, e) ->
    Printf.sprintf "%s%s %s= %s;" pad (aref_to_string r)
      (match op with
       | Op.Add -> "+"
       | Op.Sub -> "-"
       | Op.Mul -> "*"
       | _ -> Op.to_string op)
      (pretty_expr e)
  | Reduce (name, op, e) ->
    Printf.sprintf "%s%s = %s(%s, %s);" pad name (Op.to_string op) name
      (pretty_expr e)

let pretty k =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "// %s (%s, %s%s, %s)\n" k.name (Suite.to_string k.suite)
       (Dtype.to_string k.dtype)
       (if k.lanes > 1 then Printf.sprintf "x%d" k.lanes else "")
       k.size_desc);
  Buffer.add_string buf "#pragma dsa config\n{\n";
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "  // region %s\n" r.rname);
      Buffer.add_string buf "  #pragma dsa decouple\n";
      let ind = ref 2 in
      List.iter
        (fun (l : loop) ->
          let bound =
            match l.trip with
            | Fixed n -> string_of_int n
            | Triangular n -> Printf.sprintf "%d-outer /*triangular*/" n
          in
          Buffer.add_string buf
            (Printf.sprintf "%sfor (%s = 0; %s < %s; ++%s)\n"
               (String.make !ind ' ') l.var l.var bound l.var);
          ind := !ind + 2)
        r.loops;
      List.iter
        (fun s -> Buffer.add_string buf (pretty_stmt !ind s ^ "\n"))
        r.body)
    k.regions;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
