(* The source frontend: parse (C_source.emit k) must round-trip to a
   structurally equal kernel for the whole suite, rejected inputs must
   yield located errors (never exceptions), and the seeded generator +
   fuzz loop must be deterministic with full grammar coverage. *)

open Overgen_workload
module Frontend = Overgen_frontend.Frontend
module Gen = Overgen_frontend.Gen
module Fuzz = Overgen_frontend.Fuzz
module Compile = Overgen_mdfg.Compile
module Rng = Overgen_util.Rng

let parse_ok src =
  match Frontend.parse src with
  | Ok k -> k
  | Error e -> Alcotest.failf "parse failed: %s" (Frontend.error_to_string e)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* structural equality is meaningful here: [Ir.kernel] is pure data and
   both sides build affines through the normalizing constructor *)
let test_round_trip_suite () =
  List.iter
    (fun (k : Ir.kernel) ->
      let k' = parse_ok (C_source.emit k) in
      if k' <> k then
        Alcotest.failf "kernel %s does not round-trip structurally\n%s\n-- vs --\n%s"
          k.name (Ir.pretty k) (Ir.pretty k'))
    Kernels.all

let test_round_trip_schedules_bit_identical () =
  List.iter
    (fun (k : Ir.kernel) ->
      let k' = parse_ok (C_source.emit k) in
      List.iter
        (fun tuned ->
          let c = Compile.compile ~tuned k and c' = Compile.compile ~tuned k' in
          Alcotest.(check string)
            (Printf.sprintf "%s tuned=%b mdfg content hash" k.name tuned)
            (Compile.hash_compiled c) (Compile.hash_compiled c'))
        [ false; true ])
    Kernels.all

let test_round_trip_tuned_emission () =
  (* ~tuned:true emission swaps the tuned regions into the main function:
     it must still parse, to a kernel whose regions are the tuned ones *)
  List.iter
    (fun (k : Ir.kernel) ->
      match k.og_tuning with
      | None -> ()
      | Some t ->
        let k' = parse_ok (C_source.emit ~tuned:true k) in
        if k'.regions <> t.regions then
          Alcotest.failf "%s: tuned emission did not parse to the tuned regions"
            k.name)
    Kernels.all

(* ---------------- emitter bug regressions ---------------- *)

let test_affine_negative_rendering () =
  let a = Ir.affine ~const:(-3) [ ("i", 2) ] in
  Alcotest.(check string) "compact" "2*i-3" (Ir.affine_to_string a);
  let b = Ir.affine [ ("i", 1); ("j", -1) ] in
  Alcotest.(check string) "unit negative coeff" "i-j" (Ir.affine_to_string b);
  let c = Ir.affine ~const:4 [ ("j", -1) ] in
  Alcotest.(check string) "leading negative" "-j+4" (Ir.affine_to_string c);
  Alcotest.(check string) "spaced" "2*i - 3"
    (Ir.affine_render ~sep_plus:" + " ~sep_minus:" - " a)

let test_affine_negative_round_trip () =
  (* negative coefficients (reversed walks) and negative constants in
     expressions through emit -> parse; a subscript's minimum stays >= 0 *)
  let k =
    {
      (Kernels.find "solver") with
      Ir.name = "negrt";
      arrays = [ ("a", 16); ("c", 16) ];
      regions =
        [
          {
            Ir.rname = "neg";
            loops = [ { Ir.var = "i"; trip = Ir.Fixed 8 } ];
            body =
              [
                Ir.Store
                  ( {
                      Ir.array = "c";
                      index = Ir.Direct (Ir.affine ~const:7 [ ("i", -1) ]);
                    },
                    Ir.Binop
                      ( Overgen_adg.Op.Add,
                        Ir.Load
                          {
                            Ir.array = "a";
                            index =
                              Ir.Direct (Ir.affine ~const:14 [ ("i", -2) ]);
                          },
                        Ir.Const (-2.5) ) );
              ];
            hls = Ir.Clean;
          };
        ];
      og_tuning = None;
    }
  in
  let src = C_source.emit k in
  (* the satellite bug: subscripts used to render as [7 + -1*i]; the
     canonical forms lead with the negative term and join with minus *)
  if not (contains src "og_c[-i + 7]" && contains src "og_a[-2*i + 14]")
  then Alcotest.failf "negative subscripts not rendered canonically:\n%s" src;
  if contains src "+ -1*" || contains src "+-" then
    Alcotest.failf "emitted subscript still joins negatives with '+':\n%s" src;
  let k' = parse_ok src in
  if k' <> k then Alcotest.fail "negative affine kernel does not round-trip"

let test_const_literals_dtype_correct () =
  let solver = Kernels.find "solver" in
  let f64 = { solver with Ir.name = "cf" } in
  let with_body body =
    {
      f64 with
      Ir.regions =
        [
          {
            Ir.rname = "r";
            loops = [ { Ir.var = "i"; trip = Ir.Fixed 4 } ];
            body;
            hls = Ir.Clean;
          };
        ];
      arrays = [ ("x", 8) ];
      og_tuning = None;
    }
  in
  let st e =
    Ir.Store ({ Ir.array = "x"; index = Ir.Direct (Ir.affine [ ("i", 1) ]) }, e)
  in
  let k =
    with_body [ st (Ir.Binop (Overgen_adg.Op.Div, Ir.Const 1.0, Ir.Const 2.0)) ]
  in
  let src = C_source.emit k in
  (* a float-dtype kernel must never emit bare C int literals *)
  if not (contains src "(1.0 / 2.0)") then
    Alcotest.failf "float consts emitted wrong:\n%s" src;
  let k' = parse_ok src in
  if k' <> k then Alcotest.fail "float const kernel does not round-trip";
  (* huge integer-valued floats must not go through int_of_float *)
  let huge = 1e18 in
  let k2 = with_body [ st (Ir.Const huge) ] in
  let k2' = parse_ok (C_source.emit k2) in
  (match List.hd (List.hd k2'.Ir.regions).Ir.body with
  | Ir.Store (_, Ir.Const f) ->
    Alcotest.(check (float 0.0)) "huge const survives" huge f
  | _ -> Alcotest.fail "unexpected lowering of huge const");
  Alcotest.(check string) "pretty guards int_of_float" "1e+18"
    (Ir.const_to_string huge)

let test_triangular_bound_emitted () =
  let cholesky = Kernels.find "cholesky" in
  let src = C_source.emit cholesky in
  if not (contains src "OG_TRI(j, 48)") then
    Alcotest.failf "triangular loop lost its dependent bound:\n%s" src;
  if not (contains src "OG_TRI(i, 48)") then
    Alcotest.fail "inner triangular loop should ride the enclosing variable"

(* ---------------- located errors, no exceptions ---------------- *)

let located_error ?(min_line = 1) src expect_sub =
  match Frontend.parse src with
  | Ok _ -> Alcotest.failf "expected a parse error (%s)" expect_sub
  | Error e ->
    let msg = Frontend.error_to_string e in
    if not (contains msg expect_sub) then
      Alcotest.failf "error %S does not mention %S" msg expect_sub;
    Alcotest.(check bool) "error is located" true (e.Frontend.line >= min_line)

let minimal_src body =
  Printf.sprintf
    {|#pragma dsa kernel name(t) suite(dsp) dtype(f64) lanes(1) size(4)
static double og_x[8];
static double og_y[8];
void t_kernel(void) {
#pragma dsa config
{
  #pragma dsa decouple region(r) hls(clean)
  for (int i = 0; i < 4; ++i) {
%s
  }
}
}
int main(void) { t_kernel(); return 0; }
|}
    body

let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i = if i + m > n then None
    else if String.sub s i m = sub then Some i else find (i + 1) in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let test_error_unterminated_pragma () =
  located_error
    (replace_once ~sub:"name(t)" ~by:"name(t"
       (minimal_src "    og_x[i] = og_y[i];"))
    "unterminated pragma"

let test_error_non_affine_subscript () =
  located_error (minimal_src "    og_x[i*i] = og_y[i];") "non-affine";
  located_error (minimal_src "    og_x[i] = og_y[i * i];") "non-affine"

let test_error_unknown_op () =
  located_error (minimal_src "    og_x[i] = frobnicate(og_y[i]);") "unknown op";
  located_error (minimal_src "    og_x[i] = select(og_y[i], og_y[i]);")
    "not expressible"

let test_error_misc_located () =
  located_error "int x;" "missing '#pragma dsa kernel";
  (* the bounds check runs on the lowered kernel, after locations *)
  located_error ~min_line:0 (minimal_src "    og_x[i+9] = og_y[i];") "can reach";
  located_error (minimal_src "    og_z[i] = og_y[i];") "undeclared array";
  located_error (minimal_src "    og_x[j] = og_y[i];") "not an induction";
  located_error (minimal_src "    og_x[i] = i;") "outside a subscript";
  (* exceptions never escape, even on garbage *)
  List.iter
    (fun junk ->
      match Frontend.parse junk with
      | Ok _ -> Alcotest.fail "garbage parsed"
      | Error _ -> ())
    [ ""; "\x00\x01\x02"; "void"; "#pragma dsa kernel name()"; "{{{{" ]

let test_source_name () =
  let src = C_source.emit (Kernels.find "stencil-3d") in
  Alcotest.(check (option string)) "source_name" (Some "stencil-3d")
    (Frontend.source_name src);
  Alcotest.(check (option string)) "no pragma" None (Frontend.source_name "int x;")

(* ---------------- generator + fuzz loop ---------------- *)

let test_gen_deterministic () =
  let gen seed =
    let cov = Gen.Cov.create () in
    let rng = Rng.of_string (Printf.sprintf "gen:%d" seed) in
    List.init 20 (fun _ -> Gen.kernel ~cov rng)
  in
  let a = gen 7 and b = gen 7 and c = gen 8 in
  Alcotest.(check bool) "same seed, same kernels" true (a = b);
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_gen_round_trips () =
  let cov = Gen.Cov.create () in
  let rng = Rng.of_string "gen-roundtrip" in
  for i = 0 to 199 do
    let k = Gen.kernel ~cov rng in
    let src = C_source.emit k in
    match Frontend.parse src with
    | Error e ->
      Alcotest.failf "generated kernel %d (%s) rejected: %s\n%s" i k.Ir.name
        (Frontend.error_to_string e) src
    | Ok k' ->
      if k' <> k then
        Alcotest.failf "generated kernel %d (%s) does not round-trip" i
          k.Ir.name
  done;
  (* 200 draws must exercise every grammar production the map tracks *)
  match Gen.Cov.missing cov with
  | [] -> ()
  | missing ->
    Alcotest.failf "uncovered productions after 200 kernels: %s"
      (String.concat ", " missing)

(* ---------------- bounds check: differential oracle ---------------- *)

(* The enumerating bounds check the frontend ran before its closed-form
   pass, kept as the reference: visit every iteration point (a
   triangular loop runs [0, u mod n] under its nearest enclosing loop u,
   one iteration when outermost) and record each subscript's reach, in
   the order the frontend checks them. *)
let enumerated_ranges (k : Ir.kernel) =
  List.concat_map
    (fun (r : Ir.region) ->
      let refs =
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
      in
      let env = Hashtbl.create 4 in
      let ranges = Array.make (List.length refs) (max_int, min_int) in
      let eval (a : Ir.affine) =
        List.fold_left (fun acc (v, c) -> acc + (c * Hashtbl.find env v)) a.const a.terms
      in
      let rec go loops prev =
        match loops with
        | [] ->
          List.iteri
            (fun i (_, a) ->
              let x = eval a in
              let lo, hi = ranges.(i) in
              ranges.(i) <- (min lo x, max hi x))
            refs
        | (l : Ir.loop) :: rest ->
          let bound =
            match l.trip with
            | Ir.Fixed n -> n
            | Ir.Triangular n -> ( match prev with Some u -> (u mod n) + 1 | None -> 1)
          in
          for x = 0 to bound - 1 do
            Hashtbl.replace env l.var x;
            go rest (Some x)
          done
      in
      go r.loops None;
      List.mapi (fun i (arr, _) -> (r.rname, arr, ranges.(i))) refs)
    (k.regions @ match k.og_tuning with Some t -> t.regions | None -> [])

(* the reference verdict for [k]'s array sizes, worded as the frontend
   words its located error *)
let reference_verdict (k : Ir.kernel) ranges =
  List.find_map
    (fun (rname, arr, (lo, hi)) ->
      let elems = match List.assoc_opt arr k.arrays with Some e -> e | None -> 0 in
      if lo > hi then None
      else if lo < 0 then
        Some (Printf.sprintf "subscript of %S can reach %d (negative) in region %S" arr lo rname)
      else if hi >= elems then
        Some
          (Printf.sprintf "subscript of %S can reach %d but it has %d elements (region %S)" arr
             hi elems rname)
      else None)
    ranges
  |> Option.fold ~none:(Ok ()) ~some:(fun m -> Error ("0:0: " ^ m))

(* every subscript of [r] moved by [d] elements *)
let shift_subscripts d (r : Ir.region) =
  let aref (a : Ir.aref) =
    match a.index with
    | Ir.Direct x -> { a with index = Ir.Direct (Ir.affine_shift x d) }
    | Ir.Indirect i -> { a with index = Ir.Indirect { i with at = Ir.affine_shift i.at d } }
  in
  let rec expr = function
    | Ir.Load a -> Ir.Load (aref a)
    | Ir.Unop (op, e) -> Ir.Unop (op, expr e)
    | Ir.Binop (op, a, b) -> Ir.Binop (op, expr a, expr b)
    | (Ir.Const _ | Ir.Param _) as e -> e
  in
  let stmt = function
    | Ir.Store (a, e) -> Ir.Store (aref a, expr e)
    | Ir.Accum (a, op, e) -> Ir.Accum (aref a, op, expr e)
    | Ir.Reduce (n, op, e) -> Ir.Reduce (n, op, expr e)
  in
  { r with body = List.map stmt r.body }

(* The closed-form pass inside [Frontend.parse] against the enumeration:
   the suite, 2,000 generated kernels, every variant of each with one
   array shrunk by an element (so the upper check must fire wherever
   that array was sized tight) and every variant with one region's
   subscripts moved down by one (so the lower check must fire wherever a
   subscript starts at 0) give the same verdict and the same text. *)
let test_bounds_differential () =
  let cov = Gen.Cov.create () in
  let rng = Rng.of_string "bounds-differential" in
  let kernels = Kernels.all @ List.init 2000 (fun _ -> Gen.kernel ~cov rng) in
  let below = ref 0 and above = ref 0 in
  let check label ranges (v : Ir.kernel) =
    let want = reference_verdict v ranges in
    let got =
      Result.map (fun _ -> ()) (Frontend.parse (C_source.emit v))
      |> Result.map_error Frontend.error_to_string
    in
    if got <> want then
      Alcotest.failf "%s (%s): closed form says %s, enumeration says %s" v.name label
        (match got with Ok () -> "in bounds" | Error e -> e)
        (match want with Ok () -> "in bounds" | Error e -> e);
    match got with
    | Error e -> if contains e "(negative)" then incr below else incr above
    | Ok () -> ()
  in
  List.iter
    (fun (k : Ir.kernel) ->
      let ranges = enumerated_ranges k in
      check "as is" ranges k;
      List.iter
        (fun (a, n) ->
          if n >= 2 then
            check ("shrunk " ^ a) ranges
              { k with arrays = List.map (fun (b, m) -> (b, if b = a then m - 1 else m)) k.arrays })
        k.arrays;
      List.iteri
        (fun i (r : Ir.region) ->
          let v =
            {
              k with
              regions = List.mapi (fun j r -> if i = j then shift_subscripts (-1) r else r) k.regions;
            }
          in
          check ("shifted " ^ r.rname) (enumerated_ranges v) v)
        k.regions)
    kernels;
  Alcotest.(check bool) "the lower check fires" true (!below > 1000);
  Alcotest.(check bool) "the upper check fires" true (!above > 1000)

(* a one-region kernel storing to [a] at subscript [x] under [trips]
   (loops i, j, k, ... outermost first) *)
let nest_kernel ~elems trips x =
  {
    (Kernels.find "solver") with
    Ir.name = "nest";
    arrays = [ ("a", elems) ];
    regions =
      [
        {
          Ir.rname = "r";
          loops = List.mapi (fun i trip -> { Ir.var = String.make 1 "ijkl".[i]; trip }) trips;
          body = [ Ir.Store ({ Ir.array = "a"; index = Ir.Direct x }, Ir.Const 1.0) ];
          hls = Ir.Clean;
        };
      ];
    og_tuning = None;
  }

(* Trip counts are client-supplied and unbounded: the pass must neither
   walk a huge fixed loop nor tabulate a huge triangular one.  A fixed
   loop over a small triangular child costs the child's trip; a nest of
   huge triangular trips is rejected once the step budget runs out. *)
let test_bounds_huge_trips () =
  let measure src =
    let bytes = Gc.allocated_bytes () and top = (Gc.quick_stat ()).top_heap_words in
    let t = Sys.time () in
    let r = Frontend.parse src in
    (r, Sys.time () -. t, Gc.allocated_bytes () -. bytes, (Gc.quick_stat ()).top_heap_words - top)
  in
  let ij = Ir.affine [ ("i", 1); ("j", 1) ] in
  (* i + j over i < 5e8, j <= i mod 4 reaches 499,999,999 + 3 *)
  let k = nest_kernel ~elems:500_000_003 [ Ir.Fixed 500_000_000; Ir.Triangular 4 ] ij in
  let r, secs, bytes, _ = measure (C_source.emit k) in
  (match r with
  | Ok k' -> if k' <> k then Alcotest.fail "huge fixed nest does not round-trip"
  | Error e -> Alcotest.failf "huge fixed nest rejected: %s" (Frontend.error_to_string e));
  (match Frontend.parse (C_source.emit { k with arrays = [ ("a", 500_000_002) ] }) with
  | Error e when contains e.msg "can reach 500000002 but it has 500000002" -> ()
  | _ -> Alcotest.fail "huge fixed nest: tight array not caught");
  Alcotest.(check bool) (Printf.sprintf "huge fixed nest took %.3f s" secs) true (secs < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "huge fixed nest allocated %.0f bytes" bytes)
    true (bytes < 1e6);
  let n = 500_000_000 in
  let ijk = Ir.affine [ ("i", 1); ("j", 1); ("k", 1) ] in
  let k = nest_kernel ~elems:(3 * n) [ Ir.Fixed n; Ir.Triangular n; Ir.Triangular n ] ijk in
  let r, secs, _, heap = measure (C_source.emit k) in
  (match r with
  | Error e when contains e.msg "bounds check exceeds 5000000 steps (region \"r\")" -> ()
  | Error e -> Alcotest.failf "huge triangular nest: %s" (Frontend.error_to_string e)
  | Ok _ -> Alcotest.fail "huge triangular nest accepted without a check");
  Alcotest.(check bool) (Printf.sprintf "huge triangular nest took %.3f s" secs) true (secs < 5.0);
  Alcotest.(check bool)
    (Printf.sprintf "huge triangular nest grew the heap by %d words" heap)
    true (heap < 1_000_000)

(* The pass is exact up to the int range and rejects past it: big
   coefficients whose products still fit agree with the enumeration,
   one step further overflows and is refused instead of wrapping. *)
let test_bounds_int_edge () =
  let verdict k =
    Result.map (fun _ -> ()) (Frontend.parse (C_source.emit k))
    |> Result.map_error Frontend.error_to_string
  in
  let agree label k =
    let ranges = enumerated_ranges k in
    List.iter
      (fun (_, _, (_, hi)) ->
        List.iter
          (fun elems ->
            let v = { k with Ir.arrays = [ ("a", elems) ] } in
            let want = reference_verdict v ranges and got = verdict v in
            if got <> want then
              Alcotest.failf "%s, %d elements: closed form says %s, enumeration says %s" label
                elems
                (match got with Ok () -> "in bounds" | Error e -> e)
                (match want with Ok () -> "in bounds" | Error e -> e))
          [ hi; hi + 1 ])
      ranges
  in
  let overflows label k =
    match verdict k with
    | Error e when contains e "overflows int" -> ()
    | Error e -> Alcotest.failf "%s: rejected for the wrong reason: %s" label e
    | Ok () -> Alcotest.failf "%s: overflowing subscript accepted" label
  in
  let c = max_int / 1000 in
  let fixed = [ Ir.Fixed 1001 ] and coupled = [ Ir.Fixed 1001; Ir.Triangular 7 ] in
  agree "c*i" (nest_kernel ~elems:1 fixed (Ir.affine [ ("i", c) ]));
  agree "-c*i + 1000c" (nest_kernel ~elems:1 fixed (Ir.affine ~const:(1000 * c) [ ("i", -c) ]));
  agree "coupled" (nest_kernel ~elems:1 coupled (Ir.affine [ ("i", c - 7); ("j", 1) ]));
  overflows "(c+1)*i" (nest_kernel ~elems:max_int fixed (Ir.affine [ ("i", c + 1) ]));
  overflows "coupled" (nest_kernel ~elems:max_int coupled (Ir.affine [ ("i", c); ("j", max_int / 6) ]));
  overflows "h*i + h*j"
    (nest_kernel ~elems:max_int [ Ir.Fixed 2; Ir.Fixed 2 ]
       (Ir.affine [ ("i", (max_int / 2) + 1); ("j", (max_int / 2) + 1) ]));
  overflows "const + c*i" (nest_kernel ~elems:max_int fixed (Ir.affine ~const:max_int [ ("i", 1) ]));
  (* the parser's own sums of repeated terms and constants *)
  let h = (max_int / 2) + 1 in
  let src = C_source.emit (nest_kernel ~elems:max_int fixed (Ir.affine [ ("i", h) ])) in
  let term = Printf.sprintf "og_a[%d*i]" h in
  if not (contains src term) then Alcotest.failf "expected %s in\n%s" term src;
  let rec at i = if String.sub src i (String.length term) = term then i else at (i + 1) in
  let idx = at 0 and len = String.length term in
  List.iter
    (fun sub ->
      let src =
        String.sub src 0 idx ^ sub ^ String.sub src (idx + len) (String.length src - idx - len)
      in
      match Frontend.parse src with
      | Error e when contains e.msg "subscript overflows int" && e.line > 0 -> ()
      | Error e -> Alcotest.failf "%s: %s" sub (Frontend.error_to_string e)
      | Ok _ -> Alcotest.failf "%s accepted" sub)
    [ Printf.sprintf "og_a[%d*i + %d*i]" h h; Printf.sprintf "og_a[i + %d + %d]" h h ]

let test_fuzz_smoke () =
  let s = Fuzz.run ~seeds:50 ~seed:11 () in
  Alcotest.(check int) "every seed ran" 50 s.Fuzz.runs;
  Alcotest.(check int) "no escaped exceptions" 0 s.Fuzz.escaped;
  Alcotest.(check int) "no invariant violations" 0 s.Fuzz.violations;
  Alcotest.(check int) "every schedule validates" 0 s.Fuzz.invalid;
  Alcotest.(check bool) "schedules happened" true (s.Fuzz.scheduled > 0)

let test_fuzz_with_faults () =
  let s = Fuzz.run ~seeds:40 ~seed:3 ~fault_rate:0.3 () in
  Alcotest.(check int) "no escaped exceptions under faults" 0 s.Fuzz.escaped;
  Alcotest.(check int) "no invariant violations under faults" 0
    s.Fuzz.violations;
  Alcotest.(check int) "every schedule validates under faults" 0 s.Fuzz.invalid;
  Alcotest.(check bool) "faults actually injected" true (s.Fuzz.injected > 0);
  (* forty seeds reach every grammar production; two seeds do not *)
  Alcotest.(check bool) "full sweep lists nothing uncovered" false
    (contains (Fuzz.summary_to_string s) "uncovered productions");
  Alcotest.(check bool) "short sweep lists uncovered productions" true
    (contains (Fuzz.summary_to_string (Fuzz.run ~seeds:2 ~seed:3 ())) "uncovered productions")

(* the test binary runs from the project root under [dune exec] and from
   [_build/default/test] under [dune runtest]; resolve data dirs from
   either *)
let data_dir name =
  if Sys.file_exists name then name else Filename.concat "test" name

(* every committed crasher stays a located error, never an exception *)
let test_corpus_rejects_cleanly () =
  let dir = data_dir "frontend-corpus" in
  let files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".c")
      |> List.sort String.compare
    else []
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Frontend.parse src with
      | Ok _ -> Alcotest.failf "corpus file %s unexpectedly parsed" f
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s yields a located error" f)
          true
          (e.Frontend.line >= 0 && e.Frontend.msg <> ""))
    files

(* committed golden sources: the emitter reproduces them exactly, and
   they parse back to the suite kernels *)
let test_golden_sources () =
  let dir = data_dir "frontend-golden" in
  Alcotest.(check bool) "golden dir present" true
    (Sys.file_exists dir && Sys.is_directory dir);
  List.iter
    (fun (k : Ir.kernel) ->
      let path = Filename.concat dir (C_source.fn_name k ^ ".c") in
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) (path ^ " matches emitter") src (C_source.emit k);
      let k' = parse_ok src in
      if k' <> k then Alcotest.failf "%s does not parse back to %s" path k.name)
    Kernels.all

(* Surface syntax the emitter never prints but the parser accepts: line
   comments, "# pragma" with a space, a negative scalar initializer, a
   non-static global with an initializer, a subscript scaled on the
   right ([i * 2]) and an op called by its name ([shl]). *)
let test_accepted_syntax () =
  let k =
    parse_ok
      {|// a line comment
# pragma dsa kernel name(syntax) suite(dsp) dtype(i32) lanes(1) size(64)
#include <stdint.h>

static int32_t og_p = -3;
int unused_global = 7;
static int32_t og_a[128];
static int32_t og_c[64];

void syntax_kernel(void) {
#pragma dsa config
{
  #pragma dsa decouple region(r) hls(clean)
  for (int i = 0; i < 64; ++i) {
    og_c[i] = shl(og_a[i * 2], 1) + og_p;
  }
}
}
|}
  in
  Alcotest.(check string) "name" "syntax" k.Ir.name;
  match (List.hd k.regions).body with
  | [ Ir.Store (_, Ir.Binop (Overgen_adg.Op.Add, Ir.Binop (Overgen_adg.Op.Shl, Ir.Load a, _), Ir.Param "p")) ]
    ->
    Alcotest.(check (list (pair string int))) "scaled subscript" [ ("i", 2) ]
      (match a.index with Ir.Direct aff -> aff.terms | Ir.Indirect _ -> [])
  | _ -> Alcotest.fail "unexpected body"

let tests =
  [
    Alcotest.test_case "round-trip: all 19 suite kernels" `Quick
      test_round_trip_suite;
    Alcotest.test_case "round-trip: schedules bit-identical" `Slow
      test_round_trip_schedules_bit_identical;
    Alcotest.test_case "round-trip: tuned emission" `Quick
      test_round_trip_tuned_emission;
    Alcotest.test_case "affine: negative rendering canonical" `Quick
      test_affine_negative_rendering;
    Alcotest.test_case "affine: negative round-trip" `Quick
      test_affine_negative_round_trip;
    Alcotest.test_case "consts: dtype-correct literals" `Quick
      test_const_literals_dtype_correct;
    Alcotest.test_case "triangular: dependent bound emitted" `Quick
      test_triangular_bound_emitted;
    Alcotest.test_case "errors: unterminated pragma" `Quick
      test_error_unterminated_pragma;
    Alcotest.test_case "errors: non-affine subscript" `Quick
      test_error_non_affine_subscript;
    Alcotest.test_case "errors: unknown op" `Quick test_error_unknown_op;
    Alcotest.test_case "errors: located, never exceptions" `Quick
      test_error_misc_located;
    Alcotest.test_case "source_name peek" `Quick test_source_name;
    Alcotest.test_case "gen: deterministic in the seed" `Quick
      test_gen_deterministic;
    Alcotest.test_case "gen: 200 kernels round-trip + full coverage" `Slow
      test_gen_round_trips;
    Alcotest.test_case "bounds: closed form = enumeration" `Slow
      test_bounds_differential;
    Alcotest.test_case "bounds: huge trips stay cheap" `Quick
      test_bounds_huge_trips;
    Alcotest.test_case "bounds: exact to the int range" `Quick
      test_bounds_int_edge;
    Alcotest.test_case "fuzz: clean pipeline smoke" `Slow test_fuzz_smoke;
    Alcotest.test_case "fuzz: under fault injection" `Slow
      test_fuzz_with_faults;
    Alcotest.test_case "corpus: crashers reject cleanly" `Quick
      test_corpus_rejects_cleanly;
    Alcotest.test_case "golden: emitted sources committed" `Quick
      test_golden_sources;
    Alcotest.test_case "syntax: accepted surface forms" `Quick
      test_accepted_syntax;
  ]
