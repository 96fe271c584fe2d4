(* Golden tables: rows of tab-separated fields checked bit for bit, in
   order, against a file under test/ whose '#' lines are comments.  When
   the environment variable [regen_var] names a path, the current rows are
   also written there behind [header], to be copied over the table only
   when a change to the pinned results is intended. *)

let data_dir name =
  if Sys.file_exists name then name else Filename.concat "test" name

let check ~file ~regen_var ~header rows =
  (match Sys.getenv_opt regen_var with
  | Some path ->
    Out_channel.with_open_bin path (fun oc ->
        output_string oc header;
        List.iter (fun r -> output_string oc (r ^ "\n")) rows)
  | None -> ());
  let golden =
    In_channel.with_open_bin (data_dir file) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "row count" (List.length golden) (List.length rows);
  List.iter2
    (fun g r -> Alcotest.(check string) (List.hd (String.split_on_char '\t' g)) g r)
    golden rows
