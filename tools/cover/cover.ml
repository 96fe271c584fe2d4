(* The coverage rewriter: every branch point of a file (see [Points]) bumps
   its counter in a table the file registers with [Cover_rt] when its module
   initializes:

     let ___cover = Cover_rt.register "lib/x/y.ml" [| line0; line1; ... |]
     ... | p -> (Cover_rt.hit ___cover 0; e) ...

   It is the instrumentation backend every lib/*/dune names, so it runs only
   in a build given `--instrument-with cover` (`make coverage`). *)

open Ppxlib

let instrument str =
  match str with
  | [] -> str
  | first :: _ ->
    let file = first.pstr_loc.loc_start.pos_fname in
    let wrap (p : Points.point) (arm : expression) =
      let loc = { arm.pexp_loc with loc_ghost = true } in
      let open Ast_builder.Default in
      pexp_sequence ~loc
        [%expr Cover_rt.hit ___cover [%e eint ~loc p.index]]
        arm
    in
    let str, points = Points.walk ~wrap str in
    if points = [] then str
    else
      let loc = { first.pstr_loc with loc_ghost = true } in
      let open Ast_builder.Default in
      let lines = List.map (fun (p : Points.point) -> eint ~loc p.line) points in
      [%stri
        let ___cover =
          Cover_rt.register [%e estring ~loc file] [%e pexp_array ~loc lines]]
      :: str

let () =
  Driver.register_transformation "cover"
    ~instrument:(Driver.Instrument.make instrument ~position:Before)
