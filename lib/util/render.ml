let float_cell v =
  if Float.is_integer v && Float.abs v < 1e6 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.1f" v
  else if Float.abs v >= 1.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.3f" v

let pct_cell v = Printf.sprintf "%.1f%%" (100.0 *. v)

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let table ~headers ~rows =
  let ncols = List.length headers in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let render_row cells =
    let padded = List.map2 (fun w c -> pad w c) widths cells in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let sep =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) rows;
  Buffer.add_string buf sep;
  Buffer.contents buf

let bar_glyphs = [| '#'; '='; '*'; '+'; 'o'; '~'; '%'; '@' |]

let bar_chart ~title rows ~series =
  let width = 40 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (title ^ "\n");
  (* Map [1/8, 16] onto [0, width]; 1.0 sits at 3/7 of the width. *)
  let scale v =
    let l = Float.log2 (Float.max v 0.125) +. 3.0 in
    int_of_float (Stats.clamp ~lo:0.0 ~hi:(float_of_int width) (l /. 7.0 *. float_of_int width))
  in
  let label_width =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
  in
  let series_width =
    List.fold_left (fun acc s -> max acc (String.length s)) 0 series
  in
  List.iter
    (fun (label, values) ->
      Buffer.add_string buf (pad label_width label ^ "\n");
      List.iteri
        (fun i v ->
          let name = try List.nth series i with _ -> Printf.sprintf "s%d" i in
          let glyph = bar_glyphs.(i mod Array.length bar_glyphs) in
          let n = scale v in
          Buffer.add_string buf
            (Printf.sprintf "  %s |%s %s\n" (pad series_width name)
               (String.make n glyph) (float_cell v)))
        values)
    rows;
  Buffer.add_string buf
    (Printf.sprintf "  (log2 scale: bar at %d chars = 1.0x)\n" (3 * width / 7));
  Buffer.contents buf

let line_chart ~title ~xlabel ~ylabel seriess =
  let width = 60 and height = 16 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  let all_pts = List.concat_map snd seriess in
  match all_pts with
  | [] -> Buffer.add_string buf "  (no data)\n"; Buffer.contents buf
  | _ ->
    let xs = List.map fst all_pts and ys = List.map snd all_pts in
    let xmin = List.fold_left Float.min infinity xs in
    let xmax = List.fold_left Float.max neg_infinity xs in
    let ymin = List.fold_left Float.min infinity ys in
    let ymax = List.fold_left Float.max neg_infinity ys in
    let xspan = if xmax -. xmin <= 0.0 then 1.0 else xmax -. xmin in
    let yspan = if ymax -. ymin <= 0.0 then 1.0 else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si (_, pts) ->
        let glyph = bar_glyphs.(si mod Array.length bar_glyphs) in
        List.iter
          (fun (x, y) ->
            let cx =
              Stats.clamp_int ~lo:0 ~hi:(width - 1)
                (int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1)))
            in
            let cy =
              Stats.clamp_int ~lo:0 ~hi:(height - 1)
                (int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1)))
            in
            grid.(height - 1 - cy).(cx) <- glyph)
          pts)
      seriess;
    Buffer.add_string buf (Printf.sprintf "%s (%.3g .. %.3g)\n" ylabel ymin ymax);
    Array.iter
      (fun row ->
        Buffer.add_string buf ("  |" ^ String.init width (Array.get row) ^ "\n"))
      grid;
    Buffer.add_string buf ("  +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buf (Printf.sprintf "   %s (%.3g .. %.3g)\n" xlabel xmin xmax);
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "   %c = %s\n" bar_glyphs.(si mod Array.length bar_glyphs) name))
      seriess;
    Buffer.contents buf
