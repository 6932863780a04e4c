(* The reference model for Reporting.Mjson: the codec as it stood before
   the parser read bytes in place and the writer escaped straight into
   the output buffer. It peeks through an option per byte and builds a
   Buffer per string, which makes it slow and obviously right; the
   differential properties in test_mjson.ml hold the library to its
   output bytes, parsed values and error messages, offsets included. *)

type t = Reporting.Mjson.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

let escape_string s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
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
  Buffer.add_char b '"';
  Buffer.contents b

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.17g" f in
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_nan f || Float.abs f = infinity then
        Buffer.add_string b "null" (* JSON has no nan/inf *)
      else Buffer.add_string b (float_repr f)
  | Str s -> Buffer.add_string b (escape_string s)
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (escape_string k);
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b

(* Pretty printer: objects and lists one element per line, for
   artifacts that get committed (bench baselines) and diffed. *)
let rec write_pretty b indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> write b v
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad;
          write_pretty b (indent + 2) x)
        xs;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ');
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad;
          Buffer.add_string b (escape_string k);
          Buffer.add_string b ": ";
          write_pretty b (indent + 2) v)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ');
      Buffer.add_char b '}'

let to_string_pretty v =
  let b = Buffer.create 4096 in
  write_pretty b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

type parser_state = { s : string; mutable pos : int }

let peek p = if p.pos < String.length p.s then Some p.s.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let error p msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" p.pos msg))

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | _ -> error p (Printf.sprintf "expected %c" c)

let literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.s && String.sub p.s p.pos n = word then begin
    p.pos <- p.pos + n;
    value
  end
  else error p (Printf.sprintf "expected %s" word)

let parse_string_body p =
  let b = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> error p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' -> (
        advance p;
        match peek p with
        | Some '"' -> advance p; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance p; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance p; Buffer.add_char b '/'; go ()
        | Some 'n' -> advance p; Buffer.add_char b '\n'; go ()
        | Some 't' -> advance p; Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance p; Buffer.add_char b '\r'; go ()
        | Some 'b' -> advance p; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance p; Buffer.add_char b '\012'; go ()
        | Some 'u' ->
            advance p;
            if p.pos + 4 > String.length p.s then error p "bad \\u escape";
            let hex = String.sub p.s p.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error p "bad \\u escape"
            in
            p.pos <- p.pos + 4;
            (* encode as UTF-8 (basic multilingual plane only) *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> error p "bad escape")
    | Some c ->
        advance p;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number p =
  let start = p.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek p with Some c when is_num_char c -> true | _ -> false) do
    advance p
  done;
  let tok = String.sub p.s start (p.pos - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error p (Printf.sprintf "bad number %S" tok))

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> error p "unexpected end of input"
  | Some '{' ->
      advance p;
      skip_ws p;
      if peek p = Some '}' then (advance p; Obj [])
      else begin
        let rec members acc =
          skip_ws p;
          expect p '"';
          let k = parse_string_body p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' -> advance p; members ((k, v) :: acc)
          | Some '}' -> advance p; Obj (List.rev ((k, v) :: acc))
          | _ -> error p "expected , or } in object"
        in
        members []
      end
  | Some '[' ->
      advance p;
      skip_ws p;
      if peek p = Some ']' then (advance p; List [])
      else begin
        let rec elements acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' -> advance p; elements (v :: acc)
          | Some ']' -> advance p; List (List.rev (v :: acc))
          | _ -> error p "expected , or ] in array"
        in
        elements []
      end
  | Some '"' ->
      advance p;
      Str (parse_string_body p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some _ -> parse_number p

let of_string s =
  let p = { s; pos = 0 } in
  match parse_value p with
  | v ->
      skip_ws p;
      if p.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
      else Ok v
  | exception Parse_error msg -> Error msg
