(* ---------- JSON emission ---------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON numbers may not be nan/inf; clamp defensively. *)
let num v =
  if Float.is_nan v then "0"
  else if v = infinity then "1e308"
  else if v = neg_infinity then "-1e308"
  else Printf.sprintf "%.3f" v

let args_json (s : Span.span) =
  let fields =
    [ ("span_id", string_of_int s.id); ("parent_id", string_of_int s.parent) ]
    @ (if s.trace = "" then [] else [ ("trace", s.trace) ])
    @ s.attrs
  in
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)) fields)
  ^ "}"

let chrome_event ?(pid = 1) (s : Span.span) =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"overgen\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":%s}"
    (escape s.name) pid s.domain
    (num (s.start_s *. 1e6))
    (num (s.dur_s *. 1e6))
    (args_json s)

let to_chrome spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (chrome_event s))
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* Chrome's trace viewer names processes via "M" (metadata) events; the
   merged multi-shard trace emits one per pid so shards show up as
   labelled process lanes rather than bare numbers. *)
let merge_chrome ?(names = []) pid_spans =
  let pids =
    List.sort_uniq compare (List.map fst pid_spans)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b line
  in
  List.iter
    (fun pid ->
      let name =
        match List.assoc_opt pid names with
        | Some n -> n
        | None -> Printf.sprintf "process %d" pid
      in
      emit
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid (escape name)))
    pids;
  List.iter (fun (pid, s) -> emit (chrome_event ~pid s)) pid_spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* Parent links are process-local (span ids are per-process counters), so
   orphanhood is judged per pid.  Returns deduplicated (pid, parent_id)
   pairs whose parent was never recorded in that process. *)
let orphans pid_spans =
  let ids = Hashtbl.create 256 in
  List.iter (fun (pid, (s : Span.span)) -> Hashtbl.replace ids (pid, s.id) ()) pid_spans;
  let missing = Hashtbl.create 16 in
  List.iter
    (fun (pid, (s : Span.span)) ->
      if s.parent <> 0 && not (Hashtbl.mem ids (pid, s.parent)) then
        Hashtbl.replace missing (pid, s.parent) ())
    pid_spans;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) missing [])

let jsonl_line ?(pid = 1) (s : Span.span) =
  Printf.sprintf
    "{\"pid\":%d,\"id\":%d,\"parent\":%d,\"trace\":\"%s\",\"name\":\"%s\",\"domain\":%d,\"start_s\":%s,\"dur_s\":%s,\"attrs\":%s}"
    pid s.id s.parent (escape s.trace) (escape s.name) s.domain
    (Printf.sprintf "%.9f" s.start_s)
    (Printf.sprintf "%.9f" s.dur_s)
    ("{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v))
           s.attrs)
    ^ "}")

let to_jsonl ?pid spans =
  String.concat "\n" (List.map (jsonl_line ?pid) spans) ^ "\n"

(* ---------- JSON value parsing ---------- *)

(* A minimal value-producing parser: the trace-merge pipeline must read
   back the JSONL span files the shards wrote, without a JSON
   dependency. *)

exception Bad of string * int

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (msg, !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal w = String.iter expect w in
  let hex_digit () =
    match peek () with
    | Some ('0' .. '9' as c) ->
      advance ();
      Char.code c - Char.code '0'
    | Some ('a' .. 'f' as c) ->
      advance ();
      Char.code c - Char.code 'a' + 10
    | Some ('A' .. 'F' as c) ->
      advance ();
      Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> advance (); Buffer.add_char b '"'; go ()
        | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
        | Some '/' -> advance (); Buffer.add_char b '/'; go ()
        | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
        | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
        | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
        | Some 'u' ->
          advance ();
          let cp =
            let d1 = hex_digit () in
            let d2 = hex_digit () in
            let d3 = hex_digit () in
            let d4 = hex_digit () in
            (d1 lsl 12) lor (d2 lsl 8) lor (d3 lsl 4) lor d4
          in
          add_utf8 b cp;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then fail "expected digit"
    in
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail "bad number");
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' -> parse_object ()
      | Some '[' -> parse_array ()
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true"; Bool true
      | Some 'f' -> literal "false"; Bool false
      | Some 'n' -> literal "null"; Null
      | Some ('-' | '0' .. '9') -> Num (parse_number ())
      | Some c -> fail (Printf.sprintf "unexpected %c" c)
      | None -> fail "unexpected end of input"
    in
    skip_ws ();
    v
  and parse_object () =
    expect '{';
    skip_ws ();
    match peek () with
    | Some '}' ->
      advance ();
      Obj []
    | _ ->
      let rec members acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        match peek () with
        | Some ',' ->
          advance ();
          members ((k, v) :: acc)
        | _ ->
          expect '}';
          Obj (List.rev ((k, v) :: acc))
      in
      members []
  and parse_array () =
    expect '[';
    skip_ws ();
    match peek () with
    | Some ']' ->
      advance ();
      Arr []
    | _ ->
      let rec elements acc =
        let v = parse_value () in
        match peek () with
        | Some ',' ->
          advance ();
          elements (v :: acc)
        | _ ->
          expect ']';
          Arr (List.rev (v :: acc))
      in
      elements []
  in
  try
    let v = parse_value () in
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Bad (msg, at) -> Error (Printf.sprintf "%s at offset %d" msg at)

let validate_json s = Result.map ignore (parse_json s)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

exception Bad_line of string

let parse_jsonl contents =
  let lines = String.split_on_char '\n' contents in
  let parse_line i line =
    let fail fmt = Printf.ksprintf (fun m -> raise (Bad_line m)) fmt in
    match parse_json line with
    | Error e -> fail "line %d: %s" (i + 1) e
    | Ok j ->
      let num_field ?default k =
        match (member k j, default) with
        | Some (Num v), _ -> v
        | None, Some d -> d
        | _ -> fail "line %d: missing number %S" (i + 1) k
      in
      let str_field ?default k =
        match (member k j, default) with
        | Some (Str v), _ -> v
        | None, Some d -> d
        | _ -> fail "line %d: missing string %S" (i + 1) k
      in
      let attrs =
        match member "attrs" j with
        | Some (Obj kvs) ->
          List.map (fun (k, v) -> (k, match v with Str s -> s | _ -> "")) kvs
        | None -> []
        | Some _ -> fail "line %d: bad attrs" (i + 1)
      in
      let span : Span.span =
        {
          id = int_of_float (num_field "id");
          parent = int_of_float (num_field "parent");
          trace = str_field ~default:"" "trace";
          name = str_field "name";
          attrs;
          domain = int_of_float (num_field ~default:0.0 "domain");
          start_s = num_field "start_s";
          dur_s = num_field "dur_s";
        }
      in
      (int_of_float (num_field ~default:1.0 "pid"), span)
  in
  try
    let res = ref [] in
    List.iteri
      (fun i line ->
        if String.trim line <> "" then res := parse_line i line :: !res)
      lines;
    Ok (List.rev !res)
  with Bad_line e -> Error e

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
