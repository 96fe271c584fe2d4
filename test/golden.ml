(* Golden tables: rows of tab-separated fields checked bit for bit, in
   order, against a file under test/ whose '#' lines are comments.  When
   the environment variable [regen_var] names a path, the current rows are
   also written there behind [header], to be copied over the table only
   when a change to the pinned results is intended.  A table whose rows
   hold only under one toolchain carries a [stamp] line (e.g. the OCaml
   version); under any other stamp the check fails, naming the regen
   command, instead of comparing rows. *)

let data_dir name =
  if Sys.file_exists name then name else Filename.concat "test" name

let check ?stamp ~file ~regen_var ~header rows =
  let stamp_line s = "# stamp: " ^ s in
  (match Sys.getenv_opt regen_var with
  | Some path ->
    Out_channel.with_open_bin path (fun oc ->
        output_string oc header;
        Option.iter (fun s -> output_string oc (stamp_line s ^ "\n")) stamp;
        List.iter (fun r -> output_string oc (r ^ "\n")) rows)
  | None -> ());
  let lines =
    In_channel.with_open_bin (data_dir file) In_channel.input_all
    |> String.split_on_char '\n'
  in
  (match stamp with
  | Some s when not (List.mem (stamp_line s) lines) ->
    Alcotest.failf
      "%s was generated under another toolchain than %s: regenerate it with \
       %s=<file> dune test, then copy <file> over test/%s"
      file s regen_var file
  | _ -> ());
  let golden = List.filter (fun l -> l <> "" && l.[0] <> '#') lines in
  Alcotest.(check int) "row count" (List.length golden) (List.length rows);
  List.iter2
    (fun g r -> Alcotest.(check string) (List.hd (String.split_on_char '\t' g)) g r)
    golden rows
