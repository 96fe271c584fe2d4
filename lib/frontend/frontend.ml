open Overgen_adg
open Overgen_workload

(* The source frontend for the pragma'd C dialect that {!C_source.emit}
   produces: a dependency-free lexer, a recursive-descent parser and a
   lowering pass into the existing {!Ir.kernel}.

   The contract mirrors the service's PR 4 isolation discipline: no
   exception ever escapes {!parse} — every rejection is a located
   {!error}, and an unexpected internal exception is demoted to one. *)

type error = { line : int; col : int; msg : string }

let error_to_string e = Printf.sprintf "%d:%d: %s" e.line e.col e.msg

exception Parse_error of error

let err line col fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { line; col; msg })) fmt

(* arithmetic on client-supplied ints *)
exception Overflow

let checked_add a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow else s

(* [x >= 0] *)
let checked_mul c x =
  let p = c * x in
  if x <> 0 && p / x <> c then raise Overflow else p

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type tok =
  | Ident of string
  | Int of int
  | Float of float
  | Punct of string
  | Pragma of string  (* the raw text after "#pragma dsa" *)
  | Eof

type token = { tok : tok; line : int; col : int }

let tok_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int n -> Printf.sprintf "integer %d" n
  | Float f -> Printf.sprintf "float %s" (Ir.float_literal f)
  | Punct p -> Printf.sprintf "%S" p
  | Pragma p -> Printf.sprintf "#pragma dsa %s" p
  | Eof -> "end of input"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let pos = ref 0 and line = ref 1 and col = ref 1 in
  let advance () =
    (if src.[!pos] = '\n' then begin
       incr line;
       col := 1
     end
     else incr col);
    incr pos
  in
  let emit line col tok = toks := { tok; line; col } :: !toks in
  let take_while p =
    let start = !pos in
    while !pos < n && p src.[!pos] do
      advance ()
    done;
    String.sub src start (!pos - start)
  in
  while !pos < n do
    let c = src.[!pos] in
    let l = !line and co = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '/' then
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done
    else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '*' then begin
      advance ();
      advance ();
      let closed = ref false in
      while (not !closed) && !pos < n do
        if src.[!pos] = '*' && !pos + 1 < n && src.[!pos + 1] = '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done;
      if not !closed then err l co "unterminated comment"
    end
    else if c = '#' then begin
      (* preprocessor line: keep "#pragma dsa ..." as a token, skip the
         rest (includes, macro definitions) *)
      let start = !pos in
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done;
      let text = String.sub src start (!pos - start) in
      let words =
        String.split_on_char ' ' text
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      match words with
      | "#pragma" :: "dsa" :: rest -> emit l co (Pragma (String.concat " " rest))
      | "#" :: "pragma" :: "dsa" :: rest ->
        emit l co (Pragma (String.concat " " rest))
      | _ -> ()
    end
    else if is_digit c then begin
      let intpart = take_while is_digit in
      let is_float = ref false in
      let buf = Buffer.create 16 in
      Buffer.add_string buf intpart;
      if !pos < n && src.[!pos] = '.' then begin
        is_float := true;
        Buffer.add_char buf '.';
        advance ();
        Buffer.add_string buf (take_while is_digit)
      end;
      if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
        is_float := true;
        Buffer.add_char buf 'e';
        advance ();
        if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then begin
          Buffer.add_char buf src.[!pos];
          advance ()
        end;
        let digits = take_while is_digit in
        if digits = "" then err l co "malformed exponent";
        Buffer.add_string buf digits
      end;
      (* C float suffixes *)
      if !pos < n && (src.[!pos] = 'f' || src.[!pos] = 'F') then begin
        is_float := true;
        advance ()
      end;
      let text = Buffer.contents buf in
      if !is_float then
        match float_of_string_opt text with
        | Some f -> emit l co (Float f)
        | None -> err l co "malformed float literal %S" text
      else (
        match int_of_string_opt text with
        | Some i -> emit l co (Int i)
        | None -> err l co "integer literal %S out of range" text)
    end
    else if is_ident_start c then emit l co (Ident (take_while is_ident_char))
    else begin
      let two =
        if !pos + 1 < n then String.sub src !pos 2 else String.make 1 c
      in
      match two with
      | "<<" | ">>" | "==" | "+=" | "-=" | "++" | "&&" | "||" | "<=" | ">=" ->
        advance ();
        advance ();
        emit l co (Punct two)
      | _ -> (
        match c with
        | '(' | ')' | '[' | ']' | '{' | '}' | ';' | ',' | '=' | '+' | '-'
        | '*' | '/' | '%' | '<' | '>' | '&' | '|' | '^' | '~' | '!' | '?'
        | ':' ->
          advance ();
          emit l co (Punct (String.make 1 c))
        | _ -> err l co "stray character %C" c)
    end
  done;
  emit !line !col Eof;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Token stream                                                        *)
(* ------------------------------------------------------------------ *)

type stream = { toks : token array; mutable i : int }

let peek s = s.toks.(s.i)
let peek2 s = if s.i + 1 < Array.length s.toks then s.toks.(s.i + 1) else peek s
let next s =
  let t = s.toks.(s.i) in
  if s.i + 1 < Array.length s.toks then s.i <- s.i + 1;
  t

let err_at (t : token) fmt = err t.line t.col fmt

let expect s want =
  let t = next s in
  match t.tok with
  | Punct p when p = want -> ()
  | _ -> err_at t "expected %S, found %s" want (tok_to_string t.tok)

let expect_ident s =
  let t = next s in
  match t.tok with
  | Ident id -> (id, t)
  | _ -> err_at t "expected an identifier, found %s" (tok_to_string t.tok)

let expect_int s =
  let t = next s in
  match t.tok with
  | Int n -> (n, t)
  | _ -> err_at t "expected an integer, found %s" (tok_to_string t.tok)

let at_punct s p = match (peek s).tok with Punct q -> q = p | _ -> false

(* ------------------------------------------------------------------ *)
(* Pragma attribute mini-parser                                        *)
(* ------------------------------------------------------------------ *)

(* A pragma's payload is "word(raw text)" attributes and bare flags; the
   raw text runs to the {e matching} close paren, so attribute values may
   themselves contain balanced parens (tune descriptions do). *)
let parse_attrs (t : token) text =
  let n = String.length text in
  let attrs = ref [] and flags = ref [] in
  let pos = ref 0 in
  let skip_ws () =
    while !pos < n && (text.[!pos] = ' ' || text.[!pos] = '\t') do
      incr pos
    done
  in
  skip_ws ();
  while !pos < n do
    let start = !pos in
    while !pos < n && is_ident_char text.[!pos] do
      incr pos
    done;
    if !pos = start then
      err_at t "malformed pragma attribute near %S"
        (String.sub text !pos (min 8 (n - !pos)));
    let word = String.sub text start (!pos - start) in
    if !pos < n && text.[!pos] = '(' then begin
      incr pos;
      let vstart = !pos in
      let depth = ref 1 in
      while !depth > 0 && !pos < n do
        (match text.[!pos] with
        | '(' -> incr depth
        | ')' -> decr depth
        | _ -> ());
        if !depth > 0 then incr pos
      done;
      if !depth > 0 then err_at t "unterminated pragma attribute %s(" word;
      attrs := (word, String.sub text vstart (!pos - vstart)) :: !attrs;
      incr pos (* the closing paren *)
    end
    else flags := word :: !flags;
    skip_ws ()
  done;
  (List.rev !attrs, List.rev !flags)

let attr t attrs name =
  match List.assoc_opt name attrs with
  | Some v -> v
  | None -> err_at t "pragma is missing the %s(...) attribute" name

let int_attr t attrs name =
  let v = attr t attrs name in
  match int_of_string_opt (String.trim v) with
  | Some n -> n
  | None -> err_at t "pragma attribute %s(%s) is not an integer" name v

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let demangle s =
  if String.length s > 3 && String.sub s 0 3 = "og_" then
    String.sub s 3 (String.length s - 3)
  else s

let known_types =
  [ "int8_t"; "int16_t"; "int32_t"; "int64_t"; "float"; "double" ]

type decls = {
  mutable arrays : (string * int) list; (* reversed build order *)
  mutable scalars : string list;
}

let is_array decls name = List.mem_assoc name decls.arrays
let is_scalar decls name = List.mem name decls.scalars

(* static TYPE og_x[N];  |  static TYPE og_p = <num>; *)
let parse_static_decl s decls =
  let _ = next s in
  let ty, tyt = expect_ident s in
  if not (List.mem ty known_types) then
    err_at tyt "unknown element type %S" ty;
  let raw, namet = expect_ident s in
  let name = demangle raw in
  if is_array decls name || is_scalar decls name then
    err_at namet "duplicate declaration of %S" name;
  if at_punct s "[" then begin
    expect s "[";
    let elems, et = expect_int s in
    if elems <= 0 then err_at et "array %S has non-positive size %d" name elems;
    expect s "]";
    expect s ";";
    decls.arrays <- (name, elems) :: decls.arrays
  end
  else begin
    expect s "=";
    let t = next s in
    (match t.tok with
    | Int _ | Float _ -> ()
    | Punct "-" -> (
      let t2 = next s in
      match t2.tok with
      | Int _ | Float _ -> ()
      | _ -> err_at t2 "expected a numeric initializer")
    | _ -> err_at t "expected a numeric initializer");
    expect s ";";
    decls.scalars <- name :: decls.scalars
  end

(* ------------------------------------------------------------------ *)
(* Affine subscripts                                                   *)
(* ------------------------------------------------------------------ *)

(* subscript ::= term (('+'|'-') term)*
   term      ::= INT | INT '*' IDENT | IDENT ('*' INT)?
   Anything else (products of variables, parens, calls) is rejected as a
   non-affine subscript. *)
let parse_affine s ~loop_vars =
  let terms = Hashtbl.create 4 in
  let const = ref 0 in
  let sum t a b =
    try checked_add a b with Overflow -> err_at t "subscript overflows int"
  in
  let add_term t v c =
    if not (List.mem v loop_vars) then
      err_at t "subscript variable %S is not an induction variable in scope" v;
    Hashtbl.replace terms v
      (sum t c (try Hashtbl.find terms v with Not_found -> 0))
  in
  let parse_term sign =
    let t = next s in
    match t.tok with
    | Int c ->
      if at_punct s "*" then begin
        expect s "*";
        let v, vt = expect_ident s in
        add_term vt v (sign * c)
      end
      else const := sum t !const (sign * c)
    | Ident v ->
      if at_punct s "*" then begin
        expect s "*";
        let t2 = next s in
        match t2.tok with
        | Int c -> add_term t v (sign * c)
        | _ ->
          err_at t2
            "non-affine subscript: %S may only be scaled by a constant \
             (subscripts are affine in the induction variables)"
            v
      end
      else add_term t v sign
    | _ ->
      err_at t "non-affine subscript: expected a term, found %s"
        (tok_to_string t.tok)
  in
  let lead_sign = if at_punct s "-" then (expect s "-"; -1) else 1 in
  parse_term lead_sign;
  let rec loop () =
    if at_punct s "+" then begin
      expect s "+";
      parse_term 1;
      loop ()
    end
    else if at_punct s "-" then begin
      expect s "-";
      parse_term (-1);
      loop ()
    end
    else if at_punct s "]" then ()
    else
      let t = peek s in
      err_at t "non-affine subscript: unexpected %s" (tok_to_string t.tok)
  in
  loop ();
  Ir.affine ~const:!const (Hashtbl.fold (fun v c acc -> (v, c) :: acc) terms [])

(* aref ::= ARRAY '[' subscript ']' | ARRAY '[' IDXARRAY '[' subscript ']' ']' *)
let parse_aref s decls ~loop_vars =
  let raw, at = expect_ident s in
  let array = demangle raw in
  if not (is_array decls array) then err_at at "undeclared array %S" array;
  expect s "[";
  let indirect =
    match ((peek s).tok, (peek2 s).tok) with
    | Ident inner, Punct "[" when is_array decls (demangle inner) -> true
    | _ -> false
  in
  let index =
    if indirect then begin
      let inner, _ = expect_ident s in
      let idx_array = demangle inner in
      expect s "[";
      let at_ = parse_affine s ~loop_vars in
      expect s "]";
      Ir.Indirect { idx_array; at = at_ }
    end
    else Ir.Direct (parse_affine s ~loop_vars)
  in
  expect s "]";
  { Ir.array; index }

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Precedence climbing over the C subset the dialect uses.  Levels from
   loosest: bor, bxor, band, equality, comparison, shifts, additive,
   multiplicative; then unary minus and primaries.  MIN/MAX/sqrt/fabs
   and the spelled-out [Op] names arrive as calls. *)
let binop_of_punct = function
  | "|" -> Some (0, Op.Bor)
  | "^" -> Some (1, Op.Bxor)
  | "&" -> Some (2, Op.Band)
  | "==" -> Some (3, Op.Cmp_eq)
  | "<" -> Some (4, Op.Cmp_lt)
  | "<<" -> Some (5, Op.Shl)
  | ">>" -> Some (5, Op.Shr)
  | "+" -> Some (6, Op.Add)
  | "-" -> Some (6, Op.Sub)
  | "*" -> Some (7, Op.Mul)
  | "/" -> Some (7, Op.Div)
  | _ -> None

let parse_expr s decls ~loop_vars =
  let rec expr min_prec =
    let lhs = ref (unary ()) in
    let continue_ = ref true in
    while !continue_ do
      match (peek s).tok with
      | Punct p -> (
        match binop_of_punct p with
        | Some (prec, op) when prec >= min_prec ->
          ignore (next s);
          let rhs = expr (prec + 1) in
          lhs := Ir.Binop (op, !lhs, rhs)
        | _ -> continue_ := false)
      | _ -> continue_ := false
    done;
    !lhs
  and unary () =
    if at_punct s "-" then begin
      let t = next s in
      match unary () with
      | Ir.Const f -> Ir.Const (-.f)
      | _ -> err_at t "negation is only supported on constants"
    end
    else primary ()
  and primary () =
    let t = next s in
    match t.tok with
    | Int n -> Ir.Const (float_of_int n)
    | Float f -> Ir.Const f
    | Punct "(" ->
      let e = expr 0 in
      expect s ")";
      e
    | Ident raw -> ident_expr t raw
    | _ -> err_at t "expected an expression, found %s" (tok_to_string t.tok)
  and ident_expr t raw =
    let name = demangle raw in
    if at_punct s "(" then call t raw
    else if at_punct s "[" then begin
      (* rewind onto the array name and reuse the aref parser *)
      s.i <- s.i - 1;
      Ir.Load (parse_aref s decls ~loop_vars)
    end
    else if is_scalar decls name then Ir.Param name
    else if List.mem name loop_vars || List.mem raw loop_vars then
      err_at t "induction variable %S used outside a subscript" raw
    else err_at t "undeclared identifier %S" raw
  and call t raw =
    expect s "(";
    let args = ref [ expr 0 ] in
    while at_punct s "," do
      expect s ",";
      args := expr 0 :: !args
    done;
    expect s ")";
    let args = List.rev !args in
    let unop op =
      match args with
      | [ a ] -> Ir.Unop (op, a)
      | _ -> err_at t "%s takes 1 argument, got %d" raw (List.length args)
    in
    let binop op =
      match args with
      | [ a; b ] -> Ir.Binop (op, a, b)
      | _ -> err_at t "%s takes 2 arguments, got %d" raw (List.length args)
    in
    match raw with
    | "sqrt" | "sqrtf" -> unop Op.Sqrt
    | "fabs" | "fabsf" | "abs" -> unop Op.Abs
    | "MIN" | "min" -> binop Op.Min
    | "MAX" | "max" -> binop Op.Max
    | _ -> (
      match Op.of_string raw with
      | Some op -> (
        match Op.arity op with
        | 1 -> unop op
        | 2 -> binop op
        | _ -> err_at t "op %S is not expressible in the loop-nest IR" raw)
      | None -> err_at t "unknown op %S" raw)
  in
  expr 0

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Canonicalization: [x = op(x, e)] and [x = (x op e)] always lower to
   the read-modify-write forms ([Accum] on arrays, [Reduce] on scalars),
   matching what the emitter prints for them. *)
(* Only the operations whose [Accum] rendering is the same surface
   syntax ([+=]/[-=], the MIN/MAX macro form, [x = (x * e)]) are
   ambiguous and need the RMW canonicalization; for any other operation
   [x = (x op e)] and [x = op(x, e)] are distinct spellings, and the
   binop one stays a [Store] (cholesky's scale region is exactly
   [l[..] = (l[..] / sqrt(..))]). *)
let rmw_idiom = function
  | Op.Add | Op.Sub | Op.Mul | Op.Min | Op.Max -> true
  | _ -> false

let canon_store r e =
  match e with
  | Ir.Binop (op, Ir.Load r', e') when rmw_idiom op && Ir.aref_equal r r' ->
    Ir.Accum (r, op, e')
  | _ -> Ir.Store (r, e)

let canon_reduce name e t =
  match e with
  | Ir.Binop (op, Ir.Param p, e') when p = name -> Ir.Reduce (name, op, e')
  | _ ->
    err_at t
      "scalar %S may only be assigned a reduction of itself (e.g. %s = %s + ...)"
      name name name

let parse_stmt s decls ~loop_vars =
  let t = peek s in
  let raw =
    match t.tok with
    | Ident raw -> raw
    | _ -> err_at t "expected a statement, found %s" (tok_to_string t.tok)
  in
  let name = demangle raw in
  if (peek2 s).tok = Punct "[" then begin
    let r = parse_aref s decls ~loop_vars in
    let t2 = next s in
    let stmt =
      match t2.tok with
      | Punct "=" -> canon_store r (parse_expr s decls ~loop_vars)
      | Punct "+=" -> Ir.Accum (r, Op.Add, parse_expr s decls ~loop_vars)
      | Punct "-=" -> Ir.Accum (r, Op.Sub, parse_expr s decls ~loop_vars)
      | _ -> err_at t2 "expected =, += or -= after an array reference"
    in
    expect s ";";
    stmt
  end
  else begin
    ignore (next s);
    if not (is_scalar decls name) then
      err_at t "undeclared scalar %S on the left-hand side" raw;
    let t2 = next s in
    let stmt =
      match t2.tok with
      | Punct "+=" -> Ir.Reduce (name, Op.Add, parse_expr s decls ~loop_vars)
      | Punct "-=" -> Ir.Reduce (name, Op.Sub, parse_expr s decls ~loop_vars)
      | Punct "=" -> canon_reduce name (parse_expr s decls ~loop_vars) t2
      | _ -> err_at t2 "expected =, += or -= after scalar %S" raw
    in
    expect s ";";
    stmt
  end

(* ------------------------------------------------------------------ *)
(* Loops and regions                                                   *)
(* ------------------------------------------------------------------ *)

(* for (int v = 0; v < BOUND; ++v) { ... }   with
   BOUND ::= INT | OG_TRI(<var or 0>, INT) *)
let parse_for_header s =
  let ft = next s in
  (match ft.tok with
  | Ident "for" -> ()
  | _ -> err_at ft "expected a for loop, found %s" (tok_to_string ft.tok));
  expect s "(";
  let it = next s in
  (match it.tok with
  | Ident "int" -> ()
  | _ -> err_at it "expected 'int' in the loop initializer");
  let var, _ = expect_ident s in
  expect s "=";
  let z, zt = expect_int s in
  if z <> 0 then err_at zt "loops must start at 0";
  expect s ";";
  let v2, v2t = expect_ident s in
  if v2 <> var then err_at v2t "loop condition tests %S, expected %S" v2 var;
  expect s "<";
  let bt = peek s in
  let trip =
    match bt.tok with
    | Int n ->
      ignore (next s);
      if n <= 0 then err_at bt "non-positive trip count %d" n;
      Ir.Fixed n
    | Ident "OG_TRI" ->
      ignore (next s);
      expect s "(";
      (* the dependent variable: an enclosing induction variable, or the
         literal 0 for a (degenerate) outermost triangular loop *)
      (match (next s).tok with
      | Ident _ | Int 0 -> ()
      | other ->
        err_at bt "OG_TRI expects an induction variable, found %s"
          (tok_to_string other));
      expect s ",";
      let n, nt = expect_int s in
      if n <= 0 then err_at nt "non-positive trip count %d" n;
      expect s ")";
      Ir.Triangular n
    | _ ->
      err_at bt "loop bound must be an integer or OG_TRI(var, n), found %s"
        (tok_to_string bt.tok)
  in
  expect s ";";
  let pt = next s in
  (match pt.tok with
  | Punct "++" -> ()
  | _ -> err_at pt "expected ++ in the loop increment");
  let v3, v3t = expect_ident s in
  if v3 <> var then err_at v3t "loop increment bumps %S, expected %S" v3 var;
  expect s ")";
  expect s "{";
  { Ir.var; trip }

(* One region: nested fors (statements only at the innermost level),
   closing braces checked on the way out. *)
let rec parse_nest s decls ~loop_vars =
  let l = parse_for_header s in
  if List.mem l.Ir.var loop_vars then begin
    let t = peek s in
    err_at t "induction variable %S shadows an enclosing loop" l.Ir.var
  end;
  let loop_vars = l.Ir.var :: loop_vars in
  if (match (peek s).tok with Ident "for" -> true | _ -> false) then begin
    let inner_loops, body = parse_nest s decls ~loop_vars in
    expect s "}";
    (l :: inner_loops, body)
  end
  else begin
    let body = ref [] in
    while not (at_punct s "}") do
      body := parse_stmt s decls ~loop_vars :: !body
    done;
    expect s "}";
    if !body = [] then begin
      let t = peek s in
      err_at t "region has an empty loop body"
    end;
    ([ l ], List.rev !body)
  end

let parse_hls (t : token) text =
  match
    String.split_on_char ' ' text |> List.filter (fun w -> w <> "")
  with
  | [ "clean" ] -> Ir.Clean
  | [ "variable_trip"; u; tu ] -> (
    match (int_of_string_opt u, int_of_string_opt tu) with
    | Some untuned_ii, Some tuned_ii -> Ir.Variable_trip { untuned_ii; tuned_ii }
    | _ -> err_at t "malformed hls(variable_trip ...) attribute")
  | [ "strided"; u ] -> (
    match int_of_string_opt u with
    | Some untuned_ii -> Ir.Strided { untuned_ii }
    | None -> err_at t "malformed hls(strided ...) attribute")
  | _ -> err_at t "unknown hls pattern %S" text

let parse_region s decls (t : token) pragma_text =
  let attrs, _flags = parse_attrs t pragma_text in
  let rname = String.trim (attr t attrs "region") in
  let hls = parse_hls t (attr t attrs "hls") in
  let loops, body = parse_nest s decls ~loop_vars:[] in
  { Ir.rname; loops; body; hls }

(* #pragma dsa config { regions... } inside a kernel function body *)
let parse_config_block s decls =
  let t = next s in
  (match t.tok with
  | Pragma p when String.trim p = "config" -> ()
  | _ -> err_at t "expected '#pragma dsa config', found %s" (tok_to_string t.tok));
  expect s "{";
  let regions = ref [] in
  let rec loop () =
    match (peek s).tok with
    | Punct "}" -> ignore (next s)
    | Pragma p -> (
      let pt = next s in
      match String.split_on_char ' ' (String.trim p) with
      | "decouple" :: rest ->
        regions := parse_region s decls pt (String.concat " " rest) :: !regions;
        loop ()
      | _ -> err_at pt "expected '#pragma dsa decouple ...' inside config")
    | other ->
      let t = peek s in
      err_at t "expected a decouple pragma or '}', found %s" (tok_to_string other)
  in
  loop ();
  if !regions = [] then err_at t "config block has no regions";
  List.rev !regions

(* void NAME(void) { <config block> } *)
let parse_kernel_fn s decls =
  let _ = next s (* void *) in
  let fname, _ = expect_ident s in
  expect s "(";
  let vt = next s in
  (match vt.tok with
  | Ident "void" -> ()
  | _ -> err_at vt "expected (void) parameter list");
  expect s ")";
  expect s "{";
  let regions = parse_config_block s decls in
  expect s "}";
  (fname, regions)

(* any other top-level definition — the reference main, or a stray
   non-static global: skip a function's balanced braces, or a plain
   declaration through its ';' *)
let skip_toplevel s =
  let _ = next s (* return type *) in
  let _ = expect_ident s in
  let t = next s in
  match t.tok with
  | Punct ";" -> ()
  | Punct "=" ->
    let rec to_semi () =
      let t = next s in
      match t.tok with
      | Punct ";" -> ()
      | Eof -> err_at t "unterminated declaration"
      | _ -> to_semi ()
    in
    to_semi ()
  | Punct "(" ->
    let rec to_close () =
      let t = next s in
      match t.tok with
      | Punct ")" -> ()
      | Eof -> err_at t "unterminated parameter list"
      | _ -> to_close ()
    in
    to_close ();
    expect s "{";
    let depth = ref 1 in
    while !depth > 0 do
      let t = next s in
      match t.tok with
      | Punct "{" -> incr depth
      | Punct "}" -> decr depth
      | Eof -> err_at t "unterminated function body"
      | _ -> ()
    done
  | _ -> err_at t "expected a declaration or function at top level"

(* ------------------------------------------------------------------ *)
(* Bounds checking                                                     *)
(* ------------------------------------------------------------------ *)

(* Exact subscript ranges without enumerating the iteration space
   (interval arithmetic would reject crs, whose arrays are sized to the
   coupled maximum of its triangular loop).  Coupling only links a loop
   to its nearest enclosing one (an outermost triangular loop runs once),
   so one pass over the chain, innermost out, is exact.  It summarizes
   what the loops below a loop add, as a function of its value x: a
   constant range under a [Fixed] child (or none), or, under a
   [Triangular m] child, the child's prefix extremes over [0, x mod m],
   read out one x at a time by a cursor.  A [Fixed n] loop over a
   triangular child takes each residue r mod m once: the child adds the
   same range at every such x, and the loop's own term is extreme at the
   first and last one — min(m, n) steps.  Steps draw on one budget per
   kernel, so huge triangular trips are rejected after bounded work, and
   leaving the int range rejects instead of wrapping. *)
let bounds_work_cap = 5_000_000

(* what the loops below a loop add, as a function of its value x *)
type below =
  | Const of (int * int)
  | Periodic of int * (unit -> unit -> int * int)  (* m, fresh cursor *)

let subscript_range ~spend (loops : Ir.loop list) (a : Ir.affine) =
  (* extremes of c*x + below(x) over x in [0, i] *)
  let extremes c below i =
    match below with
    | Const (lo, hi) ->
      let t = checked_mul c i in
      (checked_add lo (min 0 t), checked_add hi (max 0 t))
    | Periodic (m, fresh) ->
      let next = fresh () in
      let lo = ref max_int and hi = ref min_int in
      for r = 0 to min m (i + 1) - 1 do
        spend ();
        let clo, chi = next () in
        let t0 = checked_mul c r and t1 = checked_mul c (r + ((i - r) / m * m)) in
        lo := min !lo (checked_add clo (min t0 t1));
        hi := max !hi (checked_add chi (max t0 t1))
      done;
      (!lo, !hi)
  in
  (* yields the extremes of c*x + below(x) over [0, 0], [0, 1], ... *)
  let cursor c below () =
    let x = ref 0 and lo = ref max_int and hi = ref min_int in
    let child = ref (fun () -> (0, 0)) in
    fun () ->
      spend ();
      let blo, bhi =
        match below with
        | Const r -> r
        | Periodic (m, fresh) ->
          if !x mod m = 0 then child := fresh ();
          !child ()
      in
      let t = checked_mul c !x in
      lo := min !lo (checked_add blo t);
      hi := max !hi (checked_add bhi t);
      incr x;
      (!lo, !hi)
  in
  let summarize below (l : Ir.loop) =
    let c = Ir.affine_coeff a l.var in
    match l.trip with
    | Fixed n -> Const (extremes c below (n - 1))
    | Triangular m -> Periodic (m, cursor c below)
  in
  let lo, hi =
    match List.fold_left summarize (Const (0, 0)) (List.rev loops) with
    | Const r -> r
    | Periodic (_, fresh) -> fresh () ()
  in
  (checked_add a.const lo, checked_add a.const hi)

let check_bounds (k : Ir.kernel) =
  let budget = ref bounds_work_cap in
  List.iter
    (fun (r : Ir.region) ->
      let spend () =
        if !budget = 0 then
          err 0 0 "bounds check exceeds %d steps (region %S)" bounds_work_cap
            r.rname;
        decr budget
      in
      (* (array to size-check, affine subscript into it); an indirect
         target's subscript is a runtime value, so check the index-array
         access instead *)
      List.concat_map
        (fun st ->
          let all =
            Ir.stmt_loads st
            @ match Ir.stmt_store st with Some a -> [ a ] | None -> []
          in
          List.map
            (fun (a : Ir.aref) ->
              match a.index with
              | Ir.Direct x -> (a.array, x)
              | Ir.Indirect { idx_array; at } -> (idx_array, at))
            all)
        r.body
      |> List.sort_uniq compare
      |> List.iter (fun (arr, x) ->
             let lo, hi =
               try subscript_range ~spend r.loops x
               with Overflow ->
                 err 0 0 "subscript of %S overflows int in region %S" arr
                   r.rname
             in
             let elems =
               match List.assoc_opt arr k.arrays with Some e -> e | None -> 0
             in
             if lo < 0 then
               err 0 0 "subscript of %S can reach %d (negative) in region %S" arr
                 lo r.rname;
             if hi >= elems then
               err 0 0
                 "subscript of %S can reach %d but it has %d elements (region %S)"
                 arr hi elems r.rname))
    (k.regions @ match k.og_tuning with Some t -> t.regions | None -> [])

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

type meta = {
  mname : string;
  suite : Suite.t;
  dtype : Dtype.t;
  lanes : int;
  size_desc : string;
  window_reuse : bool;
  needs_broadcast : bool;
}

let parse_kernel_pragma (t : token) text =
  let attrs, flags = parse_attrs t text in
  let mname = String.trim (attr t attrs "name") in
  if mname = "" then err_at t "empty kernel name";
  let suite_s = String.trim (attr t attrs "suite") in
  let suite =
    match Suite.of_string suite_s with
    | Some s -> s
    | None -> err_at t "unknown suite %S" suite_s
  in
  let dtype_s = String.trim (attr t attrs "dtype") in
  let dtype =
    match Dtype.of_string dtype_s with
    | Some d -> d
    | None -> err_at t "unknown dtype %S" dtype_s
  in
  let lanes = int_attr t attrs "lanes" in
  if lanes < 1 then err_at t "lanes must be positive";
  {
    mname;
    suite;
    dtype;
    lanes;
    size_desc = attr t attrs "size";
    window_reuse = List.mem "window_reuse" flags;
    needs_broadcast = List.mem "broadcast" flags;
  }

let c_fn_name name = String.map (function '-' -> '_' | c -> c) name

let parse_internal src =
  let s = { toks = tokenize src; i = 0 } in
  let decls = { arrays = []; scalars = [] } in
  let meta = ref None in
  let fns = ref [] in
  let tune_desc = ref None in
  let pending_tune = ref None in
  let rec loop () =
    let t = peek s in
    match t.tok with
    | Eof -> ()
    | Pragma p -> (
      ignore (next s);
      match String.split_on_char ' ' (String.trim p) with
      | "kernel" :: rest ->
        if !meta <> None then err_at t "duplicate '#pragma dsa kernel'";
        meta := Some (parse_kernel_pragma t (String.concat " " rest));
        loop ()
      | "tune" :: rest ->
        let attrs, _ = parse_attrs t (String.concat " " rest) in
        pending_tune := Some (attr t attrs "desc");
        loop ()
      | "config" :: _ | "decouple" :: _ ->
        err_at t "'#pragma dsa %s' outside a kernel function"
          (List.hd (String.split_on_char ' ' (String.trim p)))
      | _ -> err_at t "unknown pragma '#pragma dsa %s'" p)
    | Ident "static" ->
      parse_static_decl s decls;
      loop ()
    | Ident "void" ->
      let fname, regions = parse_kernel_fn s decls in
      fns := (fname, regions, !pending_tune) :: !fns;
      (match !pending_tune with
      | Some d -> tune_desc := Some d
      | None -> ());
      pending_tune := None;
      loop ()
    | Ident ("int" | "int8_t" | "int16_t" | "int32_t" | "int64_t" | "float"
            | "double") ->
      skip_toplevel s;
      loop ()
    | other -> err_at t "unexpected %s at top level" (tok_to_string other)
  in
  loop ();
  let meta =
    match !meta with
    | Some m -> m
    | None -> err 1 1 "missing '#pragma dsa kernel ...' metadata pragma"
  in
  decls.arrays <- List.rev decls.arrays;
  let kfn = c_fn_name meta.mname ^ "_kernel" in
  let regions =
    match List.find_opt (fun (f, _, _) -> f = kfn) !fns with
    | Some (_, r, _) -> r
    | None -> err 1 1 "no function %S matching the kernel pragma" kfn
  in
  let og_tuning =
    match List.find_opt (fun (f, _, _) -> f = kfn ^ "_tuned") !fns with
    | None -> None
    | Some (_, tregions, _) ->
      let desc = match !tune_desc with Some d -> d | None -> "" in
      Some { Ir.desc; regions = tregions }
  in
  let k =
    {
      Ir.name = meta.mname;
      suite = meta.suite;
      dtype = meta.dtype;
      lanes = meta.lanes;
      arrays = decls.arrays;
      size_desc = meta.size_desc;
      regions;
      og_tuning;
      window_reuse = meta.window_reuse;
      needs_broadcast = meta.needs_broadcast;
    }
  in
  check_bounds k;
  k

let parse src =
  match parse_internal src with
  | k -> Ok k
  | exception Parse_error e -> Error e
  | exception ex ->
    (* the no-escaping-exceptions contract, held even against bugs in the
       parser itself *)
    Error { line = 0; col = 0; msg = "internal: " ^ Printexc.to_string ex }

(* Cheap metadata peek for telemetry: the kernel name from the metadata
   pragma, without running the full parser. *)
let source_name src =
  let marker = "#pragma dsa kernel" in
  let rec find i =
    match String.index_from_opt src i '#' with
    | None -> None
    | Some j ->
      if
        j + String.length marker <= String.length src
        && String.sub src j (String.length marker) = marker
      then
        let rest =
          String.sub src j (min 256 (String.length src - j))
        in
        let nm = "name(" in
        (match
           let rec idx k =
             if k + String.length nm > String.length rest then None
             else if String.sub rest k (String.length nm) = nm then Some k
             else idx (k + 1)
           in
           idx 0
         with
        | None -> None
        | Some k -> (
          let start = k + String.length nm in
          match String.index_from_opt rest start ')' with
          | Some close when close > start ->
            Some (String.sub rest start (close - start))
          | _ -> None))
      else find (j + 1)
  in
  find 0
