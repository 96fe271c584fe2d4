(* gate: the branch-coverage gate.  `make coverage` runs the tier-1 suite
   built with `--instrument-with cover`, then this from the repository root:

     gate.exe COUNTS_DIR ALLOWLIST [DIR]

   It numbers the branch points of every .ml under DIR (default lib) the
   way the rewriter does ([Points.walk]), sums the hit counts of every *.counts file in
   COUNTS_DIR, and checks the never-hit points against ALLOWLIST.  Each
   allowlist line is

     file <TAB> binding <TAB> branch text <TAB> category: reason

   where the branch text is a case's pattern (and guard) or "if <cond> then"
   / "if <cond> else" for an [if] arm, with whitespace collapsed and cut at
   80 bytes; a text that repeats within one binding gets " #2", " #3", ...
   in source order.  Keys name no line, so edits elsewhere do not move them.
   Blank lines and lines starting with '#' are comments.

   It fails (exit 1), one line per finding, on
   - a never-hit point that no entry lists;
   - an entry whose reason is empty or whose category is unknown;
   - a stale entry: its point no longer exists, or was hit and its
     category is not [race].  A [race] point is reached only when threads
     or processes interleave one way, so a run may hit it or not.
   Counts that disagree with the sources (a point index or line that the
   current lib/ does not have) fail with exit 2: the counts are from an
   older build. *)

let categories =
  [ "input"; "arg"; "error"; "durability"; "reference"; "invariant"; "race" ]

let failf fmt =
  Printf.ksprintf (fun s -> prerr_endline ("cover gate: " ^ s); exit 2) fmt

let read_file p = In_channel.with_open_bin p In_channel.input_all

let rec sources dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if f.[0] = '.' || f.[0] = '_' then []
      else if Sys.is_directory p then sources p
      else if Filename.check_suffix f ".ml"
              && not (Filename.check_suffix f ".pp.ml") then [ p ]
      else [])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let squash s =
  let b = Buffer.create (String.length s) in
  let space = ref false in
  String.iter
    (function
      | ' ' | '\t' | '\n' | '\r' -> space := Buffer.length b > 0
      | c ->
        if !space then Buffer.add_char b ' ';
        space := false;
        Buffer.add_char b c)
    s;
  let s = Buffer.contents b in
  if String.length s <= 80 then s else String.sub s 0 77 ^ "..."

(* Points of one file with their keys: (point, text) in index order. *)
let points_of file =
  let src = read_file file in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let str =
    try Ppxlib.Parse.implementation lexbuf
    with _ -> failf "%s does not parse" file
  in
  let _, points = Points.walk ~wrap:(fun _ e -> e) str in
  let text (p : Points.point) =
    let l = p.key_loc in
    let s = squash (String.sub src l.loc_start.pos_cnum
                      (l.loc_end.pos_cnum - l.loc_start.pos_cnum)) in
    match p.kind with
    | Case -> s
    | Then -> "if " ^ s ^ " then"
    | Else -> "if " ^ s ^ " else"
  in
  let seen = Hashtbl.create 16 in
  List.map (fun (p : Points.point) ->
      let t = text p in
      let k = (p.binding, t) in
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen k) in
      Hashtbl.replace seen k n;
      (p, if n = 1 then t else Printf.sprintf "%s #%d" t n))
    points

let read_counts dir =
  let hits = Hashtbl.create 4096 in
  let files =
    List.filter (fun f -> Filename.check_suffix f ".counts")
      (Array.to_list (try Sys.readdir dir with Sys_error _ -> [||]))
  in
  if files = [] then failf "no *.counts files in %s" dir;
  List.iter (fun f ->
      List.iter (fun l ->
          match String.split_on_char '\t' l with
          | [ file; i; line; n ] ->
            let k = (file, int_of_string i) in
            let line0, n0 =
              Option.value ~default:(int_of_string line, 0)
                (Hashtbl.find_opt hits k)
            in
            Hashtbl.replace hits k (line0, n0 + int_of_string n)
          | _ -> if l <> "" then failf "%s: bad line %S" f l)
        (String.split_on_char '\n' (read_file (Filename.concat dir f))))
    files;
  hits

let read_allowlist path =
  List.filter_map (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        match String.split_on_char '\t' l with
        | [ file; binding; text; reason ] -> Some ((file, binding, text), reason)
        | _ -> failf "%s: not four tab-separated fields: %S" path l)
    (String.split_on_char '\n' (read_file path))

let () =
  let counts_dir, allow_path, dir =
    match Sys.argv with
    | [| _; c; a |] -> (c, a, "lib")
    | [| _; c; a; d |] -> (c, a, d)
    | _ -> failf "usage: gate.exe COUNTS_DIR ALLOWLIST [DIR]"
  in
  let hits = read_counts counts_dir in
  let allow = read_allowlist allow_path in
  let listed = Hashtbl.create 256 in
  List.iter (fun (k, r) -> Hashtbl.replace listed k r) allow;
  let failures = ref 0 in
  let fail fmt = incr failures; Printf.printf (fmt ^^ "\n") in
  let total = ref 0 and hit = ref 0 and allowed = ref 0 in
  let exists = Hashtbl.create 4096 in
  let files = sources dir in
  List.iter (fun file ->
      List.iter (fun ((p : Points.point), text) ->
          incr total;
          let k = (file, p.binding, text) in
          Hashtbl.replace exists k ();
          let n =
            match Hashtbl.find_opt hits (file, p.index) with
            | None -> 0
            | Some (line, n) ->
              if line <> p.line then
                failf "counts for %s point %d say line %d, the source %d: \
                       stale counts" file p.index line p.line;
              Hashtbl.remove hits (file, p.index);
              n
          in
          match n > 0, Hashtbl.find_opt listed k with
          | true, None -> incr hit
          | true, Some r ->
            incr hit;
            if not (String.starts_with ~prefix:"race:" r) then
              fail "%s:%d: listed but hit: %s\t%s" file p.line p.binding text
          | false, Some _ -> incr allowed
          | false, None ->
            fail "%s:%d: never hit, not listed: %s\t%s" file p.line p.binding
              text)
        (points_of file))
    files;
  Hashtbl.iter (fun (file, i) _ ->
      if List.mem file files then
        failf "counts name point %d of %s, which has fewer: stale counts" i file)
    hits;
  List.iter (fun (((file, binding, text) as k), reason) ->
      if not (Hashtbl.mem exists k) then
        fail "%s: listed point no longer exists: %s\t%s" file binding text;
      match String.index_opt reason ':' with
      | Some i
        when List.mem (String.sub reason 0 i) categories
             && String.trim
                  (String.sub reason (i + 1) (String.length reason - i - 1))
                <> "" -> ()
      | _ ->
        fail "%s: entry needs \"category: reason\" (%s), got %S: %s\t%s" file
          (String.concat ", " categories) reason binding text)
    allow;
  Printf.printf "%d points, %d hit, %d listed, %d failures\n" !total !hit
    !allowed !failures;
  exit (if !failures = 0 then 0 else 1)
