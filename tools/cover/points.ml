(* The branch points of one implementation file, in one fixed order.

   A point is a [match], [function] or [try] case, or an explicit [then] or
   [else] arm.  A refutation case ([| p -> .]) is not a point, and neither
   is the missing [else] of an [if] without one.  Points are numbered in
   post-order (inner expressions first), and the rewriter ([Cover]) and the
   gate ([Gate]) both number them with [walk], so an index means the same
   point to both. *)

open Ppxlib

type kind = Case | Then | Else

type point = {
  index : int;
  line : int;
  binding : string;  (** The enclosing top-level binding, [M.f] in a module. *)
  kind : kind;
  key_loc : Location.t;
      (** A case's pattern (and guard), or the [if]'s condition for an arm. *)
}

let binding_name (p : pattern) =
  let vars =
    (object
       inherit [string list] Ast_traverse.fold as super

       method! pattern p acc =
         match p.ppat_desc with
         | Ppat_var v | Ppat_alias (_, v) -> super#pattern p (v.txt :: acc)
         | _ -> super#pattern p acc
    end)
      #pattern p []
  in
  match p.ppat_desc with
  | Ppat_construct ({ txt = Lident "()"; _ }, None) -> "()"
  | _ -> if vars = [] then "_" else String.concat "," (List.rev vars)

(* The context is the enclosing top-level binding, or, outside every
   binding, the module path so far ("" or "M."). *)
let at_top ctx = ctx = "" || ctx.[String.length ctx - 1] = '.'

(* [walk ~wrap str] calls [wrap point arm] on every point's arm, in index
   order, and returns the rewritten structure and the points. *)
let walk ~wrap str =
  let points = ref [] and n = ref 0 in
  let point ctx kind key_loc (arm : expression) =
    let p =
      { index = !n; line = arm.pexp_loc.loc_start.pos_lnum; binding = ctx;
        kind; key_loc }
    in
    incr n;
    points := p :: !points;
    wrap p arm
  in
  let cases ctx =
    List.map (fun c ->
        match c.pc_rhs.pexp_desc with
        | Pexp_unreachable -> c
        | _ ->
          let key_loc =
            match c.pc_guard with
            | None -> c.pc_lhs.ppat_loc
            | Some g -> { c.pc_lhs.ppat_loc with loc_end = g.pexp_loc.loc_end }
          in
          { c with pc_rhs = point ctx Case key_loc c.pc_rhs })
  in
  let mapper =
    object (self)
      inherit [string] Ast_traverse.map_with_context as super

      method! structure_item ctx si =
        match si.pstr_desc with
        | Pstr_value (rf, vbs) when at_top ctx ->
          let vb b = self#value_binding (ctx ^ binding_name b.pvb_pat) b in
          { si with pstr_desc = Pstr_value (rf, List.map vb vbs) }
        | _ -> super#structure_item ctx si

      method! module_binding ctx mb =
        match mb.pmb_name.txt with
        | Some m when at_top ctx -> super#module_binding (ctx ^ m ^ ".") mb
        | _ -> super#module_binding ctx mb

      method! expression ctx e =
        let e = super#expression ctx e in
        match e.pexp_desc with
        | Pexp_match (s, cs) -> { e with pexp_desc = Pexp_match (s, cases ctx cs) }
        | Pexp_try (s, cs) -> { e with pexp_desc = Pexp_try (s, cases ctx cs) }
        | Pexp_function (ps, c, Pfunction_cases (cs, l, a)) ->
          { e with
            pexp_desc = Pexp_function (ps, c, Pfunction_cases (cases ctx cs, l, a)) }
        | Pexp_ifthenelse (c, t, el) ->
          let t = point ctx Then c.pexp_loc t in
          let el = Option.map (point ctx Else c.pexp_loc) el in
          { e with pexp_desc = Pexp_ifthenelse (c, t, el) }
        | _ -> e
    end
  in
  let str = mapper#structure "" str in
  (str, List.rev !points)
