(* deadexports: the dead-export gate.  Run it from the repository root after
   `dune build @check`, which writes the .cmt/.cmti typed trees it reads:

     dune exec tools/deadexports.exe

   It takes no flags.  From the repository root it reads _build/default;
   from any other directory it reads that directory, sources and typed trees
   side by side (the test fixture under tools/fixture is run that way).

   Exports are the values, constructors and record fields declared in every
   lib/ .mli (read from its .cmti).  Uses are the typed trees (.cmt) of every
   .ml under lib bin test bench perfbench examples tools.  A use is a
   resolved [Path], never a name: dune's [Lib__Mod] unit names and
   [Lib.Mod] alias paths resolve to the same export, and module aliases
   ([module M = Lib.Mod], local, top-level or in a signature) are followed.
   A module passed to a functor, [include]d or packed uses every value it
   exports.

   The gate fails (exit 1) on
   - an exported value that no other compilation unit references;
   - an exported constructor (or exception) that no unit ever builds;
   - an exported value referenced from other units only under test/, unless
     its doc comment says why tests need it with "For tests:".
   Exported record fields that no unit reads (by field access, record
   pattern or [{ r with ... }] copy) are only reported: polymorphic
   equality, hashing and [Marshal] read fields implicitly, so a field's
   absence from the typed trees does not prove it dead.

   A scanned .ml without its .cmt, or a lib/ .mli without its .cmti, fails
   the run (exit 2): a missing typed tree would hide uses and flag live
   exports. *)

open Typedtree

let roots = [ "lib"; "bin"; "test"; "bench"; "perfbench"; "examples"; "tools" ]
let reason_marker = "For tests:"

let failf fmt =
  Printf.ksprintf (fun s -> prerr_endline ("deadexports: " ^ s); exit 2) fmt

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let prefix_of l ~n = List.filteri (fun i _ -> i < n) l
let drop l ~n = List.filteri (fun i _ -> i >= n) l
let key = String.concat "."

let readdir d =
  try List.sort compare (Array.to_list (Sys.readdir d)) with Sys_error _ -> []

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

(* Source files under [dir], skipping hidden and [_build] directories and
   the [.pp.ml] copies a ppx leaves beside its sources (their typed tree is
   the source's). *)
let rec sources dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if f.[0] = '.' || f.[0] = '_' then []
      else if is_dir p then sources p
      else if Filename.check_suffix f ".pp.ml" || Filename.check_suffix f ".pp.mli"
      then []
      else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
      then [ p ]
      else [])
    (readdir dir)

(* The typed trees dune wrote for the modules of [dir]. *)
let typed_trees dir =
  List.concat_map
    (fun f ->
      let byte = Filename.concat (Filename.concat dir f) "byte" in
      if f.[0] = '.' && Filename.check_suffix f "objs" && is_dir byte then
        List.map (Filename.concat byte) (readdir byte)
      else [])
    (readdir dir)

(* The module a unit name or typed-tree file names: [lib__Mod.cmt] -> "Mod". *)
let module_of_tree f =
  let base = Filename.remove_extension (Filename.basename f) in
  let rec last i =
    if i < 1 then base
    else if base.[i] = '_' && base.[i - 1] = '_' then
      String.sub base (i + 1) (String.length base - i - 1)
    else last (i - 1)
  in
  String.capitalize_ascii (last (String.length base - 1))

(* The typed tree of source [src] ([ext] is ".cmt" or ".cmti"), or fail. *)
let tree_of src ext =
  let m =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename src))
  in
  match
    List.find_opt
      (fun f -> Filename.check_suffix f ext && module_of_tree f = m)
      (typed_trees (Filename.dirname src))
  with
  | Some f -> f
  | None ->
      failf "%s has no %s: run `dune build @check` first (`@all` skips some)"
        src ext

let root_of file =
  List.find (fun r -> String.starts_with ~prefix:(r ^ "/") file) roots

(* ---- canonical paths ---- *)

(* Every compilation unit name seen ("Overgen_adg__Adg", "Overgen"). *)
let units : (string, unit) Hashtbl.t = Hashtbl.create 256

(* Module aliases at the top of a unit, "Unit.Mod" -> aliased path: [module
   Log = Log] in obs.mli, [module Hls = Overgen_hls.Hls] in an .ml. *)
let unit_aliases : (string, string list) Hashtbl.t = Hashtbl.create 64

(* [Lib; Mod; x] and [Lib__Mod; x] both become [Lib__Mod; x]; a unit alias
   prefix is replaced by its target. *)
let rec canon = function
  | l :: m :: rest when Hashtbl.mem units (l ^ "__" ^ m) ->
      canon ((l ^ "__" ^ m) :: rest)
  | comps ->
      let rec try_prefix n =
        if n >= List.length comps then comps
        else
          match Hashtbl.find_opt unit_aliases (key (prefix_of comps ~n)) with
          | Some target -> canon (target @ drop comps ~n)
          | None -> try_prefix (n + 1)
      in
      try_prefix 2

let rec path_comps = function
  | Path.Pident id -> [ Ident.name id ]
  | Pdot (p, s) -> path_comps p @ [ s ]
  | Papply (p, _) | Pextra_ty (p, _) -> path_comps p

(* The module a module expression names, through constraints. *)
let rec module_ident me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> module_ident me
  | _ -> None

let record_impl_aliases unit (str : structure) =
  List.iter
    (fun si ->
      match si.str_desc with
      | Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ } ->
          Option.iter
            (fun p ->
              Hashtbl.replace unit_aliases (key [ unit; name ]) (path_comps p))
            (module_ident mb_expr)
      | _ -> ())
    str.str_items

let rec record_sig_aliases prefix (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_alias (p, _) ->
              Hashtbl.replace unit_aliases (key (prefix @ [ name ])) (path_comps p)
          | Tmty_signature sg -> record_sig_aliases (prefix @ [ name ]) sg
          | _ -> ())
      | _ -> ())
    sg.sig_items

(* ---- exports ---- *)

type export = {
  what : [ `Value | `Constructor | `Field ];
  comps : string list;  (* canonical path: unit, modules, [type,] name *)
  loc : Location.t;
  doc : string;
}

let doc_of attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_payload with
      | PStr
          [ { pstr_desc =
                Pstr_eval
                  ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
              _ } ]
        when a.attr_name.txt = "ocaml.doc" ->
          Some s
      | _ -> None)
    attrs
  |> String.concat " "

(* Only what the .mli spells out: values of a [sig ... end] submodule count,
   those of [include S] or [module M : S] do not. *)
let rec exports_of_sig prefix (sg : signature) =
  let item what comps loc doc = { what; comps; loc; doc } in
  List.concat_map
    (fun it ->
      match it.sig_desc with
      | Tsig_value vd ->
          [ item `Value (prefix @ [ vd.val_name.txt ]) vd.val_loc
              (doc_of vd.val_attributes) ]
      | Tsig_type (_, decls) ->
          List.concat_map
            (fun td ->
              let tprefix = prefix @ [ td.typ_name.txt ] in
              match td.typ_kind with
              | Ttype_variant cds ->
                  List.map
                    (fun cd ->
                      item `Constructor (tprefix @ [ cd.cd_name.txt ]) cd.cd_loc "")
                    cds
              | Ttype_record lds ->
                  List.map
                    (fun ld -> item `Field (tprefix @ [ ld.ld_name.txt ]) ld.ld_loc "")
                    lds
              | Ttype_abstract | Ttype_open -> [])
            decls
      | Tsig_exception { tyexn_constructor = ec; _ } ->
          [ item `Constructor (prefix @ [ ec.ext_name.txt ]) ec.ext_loc "" ]
      | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> exports_of_sig (prefix @ [ name ]) sg
          | _ -> [])
      | _ -> [])
    sg.sig_items

(* ---- uses ---- *)

type uses = {
  values : (string, string) Hashtbl.t;  (* value key -> using .ml *)
  mutable wholes : (string list * string) list;  (* module used whole, by *)
  built : (string, unit) Hashtbl.t;  (* constructor key *)
  read : (string, unit) Hashtbl.t;  (* field key *)
}

let scan_uses uses file unit (str : structure) =
  (* Local module aliases: [let module R = Overgen_util.Rng in]. *)
  let aliases : (Ident.t, string list) Hashtbl.t = Hashtbl.create 16 in
  let resolve p =
    let rec go = function
      | Path.Pident id -> (
          match Hashtbl.find_opt aliases id with
          | Some c -> c
          | None ->
              if Ident.global id then [ Ident.name id ] else [ unit; Ident.name id ])
      | Pdot (p, s) -> go p @ [ s ]
      | Papply (p, _) | Pextra_ty (p, _) -> go p
    in
    canon (go p)
  in
  let use_whole me =
    Option.iter
      (fun p -> uses.wholes <- (resolve p, file) :: uses.wholes)
      (module_ident me)
  in
  let alias id me =
    Option.iter (fun p -> Hashtbl.replace aliases id (resolve p)) (module_ident me)
  in
  let type_of ty =
    match Types.get_desc ty with Tconstr (p, _, _) -> Some (resolve p) | _ -> None
  in
  let field_read (ld : Types.label_description) =
    Option.iter
      (fun t -> Hashtbl.replace uses.read (key (t @ [ ld.lbl_name ])) ())
      (type_of ld.lbl_res)
  in
  let built (cd : Types.constructor_description) =
    match cd.cstr_tag with
    | Cstr_extension (p, _) -> Hashtbl.replace uses.built (key (resolve p)) ()
    | _ ->
        Option.iter
          (fun t -> Hashtbl.replace uses.built (key (t @ [ cd.cstr_name ])) ())
          (type_of cd.cstr_res)
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> Hashtbl.add uses.values (key (resolve p)) file
          | Texp_construct (_, cd, _) -> built cd
          | Texp_field (_, _, ld) -> field_read ld
          | Texp_record { fields; extended_expression = Some _; _ } ->
              Array.iter
                (fun (ld, def) ->
                  match def with Kept _ -> field_read ld | Overridden _ -> ())
                fields
          | Texp_pack me -> use_whole me
          | Texp_letmodule (Some id, _, _, me, _) -> alias id me
          | _ -> ());
          default.expr sub e);
      pat =
        (fun (type k) sub (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_record (fields, _) -> List.iter (fun (_, ld, _) -> field_read ld) fields
          | _ -> ());
          default.pat sub p);
      module_expr =
        (fun sub me ->
          (match me.mod_desc with Tmod_apply (_, arg, _) -> use_whole arg | _ -> ());
          default.module_expr sub me);
      structure_item =
        (fun sub si ->
          (match si.str_desc with
          | Tstr_include incl -> use_whole incl.incl_mod
          | Tstr_module { mb_id = Some id; mb_expr; _ } -> alias id mb_expr
          | _ -> ());
          default.structure_item sub si);
    }
  in
  it.structure it str

(* ---- main ---- *)

let () =
  if Sys.file_exists "_build/default" then Sys.chdir "_build/default";
  let srcs = List.concat_map (fun r -> if is_dir r then sources r else []) roots in
  let impls = List.filter (fun s -> Filename.check_suffix s ".ml") srcs in
  let intfs =
    List.filter (fun s -> Filename.check_suffix s ".mli" && root_of s = "lib") srcs
  in
  if intfs = [] then failf "no lib/*.mli here: run from the repository root";
  let read ext src =
    let c = Cmt_format.read_cmt (tree_of src ext) in
    Hashtbl.replace units c.cmt_modname ();
    (src, c)
  in
  let impl_trees = List.map (read ".cmt") impls in
  let intf_trees = List.map (read ".cmti") intfs in
  let impl (src, (c : Cmt_format.cmt_infos)) =
    match c.cmt_annots with
    | Implementation str -> (src, c.cmt_modname, str)
    | _ -> failf "%s: not an implementation tree" src
  in
  let impl_trees = List.map impl impl_trees in
  List.iter (fun (_, unit, str) -> record_impl_aliases unit str) impl_trees;
  let exports =
    List.concat_map
      (fun (src, (c : Cmt_format.cmt_infos)) ->
        match c.cmt_annots with
        | Interface sg ->
            record_sig_aliases [ c.cmt_modname ] sg;
            List.map (fun e -> (src, e)) (exports_of_sig [ c.cmt_modname ] sg)
        | _ -> failf "%s: not an interface tree" src)
      intf_trees
  in
  let uses =
    {
      values = Hashtbl.create 4096;
      wholes = [];
      built = Hashtbl.create 1024;
      read = Hashtbl.create 1024;
    }
  in
  List.iter (fun (src, unit, str) -> scan_uses uses src unit str) impl_trees;
  let failures = ref 0 and unread = ref 0 in
  let flag src (e : export) msg =
    let name = key (module_of_tree (List.hd e.comps) :: List.tl e.comps) in
    Printf.printf "%s:%d: %s: %s\n" src e.loc.loc_start.pos_lnum name msg
  in
  let fail src e msg = incr failures; flag src e msg in
  let count what = List.length (List.filter (fun (_, e) -> e.what = what) exports) in
  let value src (e : export) =
    let own = Filename.remove_extension src ^ ".ml" in
    let direct = Hashtbl.find_all uses.values (key e.comps) in
    let whole =
      List.filter_map
        (fun (pre, f) ->
          if prefix_of e.comps ~n:(List.length pre) = pre then Some f else None)
        uses.wholes
    in
    let used_in_own = List.mem own direct in
    match List.filter (fun f -> f <> own) (direct @ whole) with
    | [] ->
        fail src e
          (if used_in_own then "exported value used only inside its own module"
           else "exported value that nothing references")
    | others
      when List.for_all (fun f -> root_of f = "test") others
           && not (contains e.doc reason_marker) ->
        fail src e
          (Printf.sprintf
             "exported value used only from test/ (%s) and its doc comment \
              gives no %S reason%s"
             (String.concat ", " (List.sort_uniq compare others))
             reason_marker
             (if used_in_own then "" else "; unused inside its own module"))
    | _ -> ()
  in
  List.iter
    (fun (src, (e : export)) ->
      match e.what with
      | `Value -> value src e
      | `Constructor ->
          if not (Hashtbl.mem uses.built (key e.comps)) then
            fail src e "exported constructor that no unit ever builds"
      | `Field -> ())
    exports;
  List.iter
    (fun (src, (e : export)) ->
      if e.what = `Field && not (Hashtbl.mem uses.read (key e.comps)) then begin
        incr unread;
        flag src e "exported record field that no unit reads (report only)"
      end)
    exports;
  Printf.printf
    "deadexports: %d values, %d constructors, %d fields exported from %d lib/ \
     interfaces; %d failures, %d never-read fields\n"
    (count `Value) (count `Constructor) (count `Field) (List.length intfs)
    !failures !unread;
  exit (if !failures > 0 then 1 else 0)
