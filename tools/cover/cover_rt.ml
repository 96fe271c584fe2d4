(* Runtime of the coverage rewriter.  Each instrumented file registers one
   counter per branch point; at exit the process writes every registered
   file's counters to <build-dir>/cover/<exe>.<pid>.counts, one line per
   point:

     lib/x/y.ml <TAB> index <TAB> line <TAB> count

   The build directory is found from the executable's own path (the nearest
   ancestor holding dune's [.lock] and a [default] context), so counts never
   land in the source tree.  An executable outside a build directory writes
   nothing.  Counters are plain ints: increments racing across domains can be
   lost, which leaves "hit at least once" intact. *)

let files : (string * int array * int array) list ref = ref []

let register file lines =
  let counts = Array.make (Array.length lines) 0 in
  files := (file, lines, counts) :: !files;
  counts

let hit counts i = counts.(i) <- counts.(i) + 1

let rec build_dir d =
  let parent = Filename.dirname d in
  if Sys.file_exists (Filename.concat d ".lock")
     && Sys.file_exists (Filename.concat d "default")
  then Some d
  else if parent = d then None
  else build_dir parent

let dump () =
  match build_dir (Filename.dirname Sys.executable_name) with
  | None -> ()
  | Some b ->
    let dir = Filename.concat b "cover" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let name =
      Printf.sprintf "%s.%d.counts"
        (Filename.basename Sys.executable_name) (Unix.getpid ())
    in
    let oc = open_out (Filename.concat dir name) in
    List.iter (fun (file, lines, counts) ->
        Array.iteri (fun i line ->
            Printf.fprintf oc "%s\t%d\t%d\t%d\n" file i line counts.(i))
          lines)
      !files;
    close_out oc

let () = at_exit (fun () -> try dump () with Sys_error _ -> ())
