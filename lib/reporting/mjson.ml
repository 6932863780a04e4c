(* Minimal JSON: a value type, a printer, and a recursive-descent
   parser. Hand-rolled so machine-readable test/bench artifacts need no
   dependency outside the stdlib; covers exactly the JSON subset the
   runners emit (finite floats, UTF-8 passed through opaquely).

   Both ends of every cusand reply run this codec, so neither allocates
   per byte. The writers append straight into one output buffer, a
   string's runs of bytes that need no escape with one blit each, and
   the compact writer walks lists and objects by plain recursion, with
   no closure per element. The parser reads the byte under its cursor
   in place, scans whitespace and numbers with index loops, and takes
   an escape-free string with one [String.sub]; only a string with a
   backslash is copied through a buffer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

let hex_digits = "0123456789abcdef"

let add_escape b c =
  match c with
  | '"' -> Buffer.add_string b "\\\""
  | '\\' -> Buffer.add_string b "\\\\"
  | '\n' -> Buffer.add_string b "\\n"
  | '\r' -> Buffer.add_string b "\\r"
  | '\t' -> Buffer.add_string b "\\t"
  | c ->
      Buffer.add_string b "\\u00";
      Buffer.add_char b hex_digits.[Char.code c lsr 4];
      Buffer.add_char b hex_digits.[Char.code c land 15]

(* Bytes [from, i) of [s] need no escape and are not yet in [b]. *)
let rec add_escaped b s from i =
  if i = String.length s then Buffer.add_substring b s from (i - from)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring b s from (i - from);
        add_escape b c;
        add_escaped b s (i + 1) (i + 1)
    | _ -> add_escaped b s from (i + 1)

let add_string b s =
  Buffer.add_char b '"';
  add_escaped b s 0 0;
  Buffer.add_char b '"'

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
  | Str s -> add_string b s
  | List [] -> Buffer.add_string b "[]"
  | List (x :: xs) ->
      Buffer.add_char b '[';
      write b x;
      write_elements b xs;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj (kv :: kvs) ->
      Buffer.add_char b '{';
      write_member b kv;
      write_members b kvs;
      Buffer.add_char b '}'

and write_elements b = function
  | [] -> ()
  | x :: xs ->
      Buffer.add_char b ',';
      write b x;
      write_elements b xs

and write_member b (k, v) =
  add_string b k;
  Buffer.add_char b ':';
  write b v

and write_members b = function
  | [] -> ()
  | kv :: kvs ->
      Buffer.add_char b ',';
      write_member b kv;
      write_members b kvs

let to_buffer = write

let to_buffer_obj b fields ~last:(key, text) =
  Buffer.add_char b '{';
  List.iter
    (fun kv ->
      write_member b kv;
      Buffer.add_char b ',')
    fields;
  add_string b key;
  Buffer.add_char b ':';
  Buffer.add_string b text;
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
          add_string b k;
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

let at_end p = p.pos >= String.length p.s

(* The byte under the cursor; only read once [at_end] is false. *)
let cur p = String.unsafe_get p.s p.pos

let advance p = p.pos <- p.pos + 1

let error p msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" p.pos msg))

let rec skip_ws p =
  if not (at_end p) then
    match cur p with
    | ' ' | '\t' | '\n' | '\r' ->
        advance p;
        skip_ws p
    | _ -> ()

let expect p c =
  if (not (at_end p)) && cur p = c then advance p
  else error p (Printf.sprintf "expected %c" c)

let rec matches s off word i =
  i = String.length word
  || String.unsafe_get s (off + i) = String.unsafe_get word i
     && matches s off word (i + 1)

let literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.s && matches p.s p.pos word 0 then begin
    p.pos <- p.pos + n;
    value
  end
  else error p (Printf.sprintf "expected %s" word)

(* The first quote or backslash at or after [i], else the end. *)
let rec next_special s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> next_special s (i + 1)

(* The rest of a string that holds an escape, the cursor at a quote or
   a backslash; the bytes before it are already in [b]. *)
let rec escaped_string_body p b =
  if at_end p then error p "unterminated string"
  else
    match cur p with
    | '"' ->
        advance p;
        Buffer.contents b
    | '\\' ->
        advance p;
        let simple c =
          advance p;
          Buffer.add_char b c
        in
        (if at_end p then error p "bad escape"
         else
           match cur p with
           | '"' -> simple '"'
           | '\\' -> simple '\\'
           | '/' -> simple '/'
           | 'n' -> simple '\n'
           | 't' -> simple '\t'
           | 'r' -> simple '\r'
           | 'b' -> simple '\b'
           | 'f' -> simple '\012'
           | 'u' ->
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
               end
           | _ -> error p "bad escape");
        escaped_string_body p b
    | _ ->
        let stop = next_special p.s p.pos in
        Buffer.add_substring b p.s p.pos (stop - p.pos);
        p.pos <- stop;
        escaped_string_body p b

(* After the opening quote: an escape-free string is one [String.sub]. *)
let parse_string_body p =
  let stop = next_special p.s p.pos in
  if stop = String.length p.s then begin
    p.pos <- stop;
    error p "unterminated string"
  end
  else if String.unsafe_get p.s stop = '"' then begin
    let s = String.sub p.s p.pos (stop - p.pos) in
    p.pos <- stop + 1;
    s
  end
  else begin
    let b = Buffer.create (stop - p.pos + 16) in
    Buffer.add_substring b p.s p.pos (stop - p.pos);
    p.pos <- stop;
    escaped_string_body p b
  end

let rec number_end s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> number_end s (i + 1)
    | _ -> i

(* The value of the decimal digits [s.[i..stop)], or -1 if a byte there
   is not a digit. *)
let rec digits s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* A token of up to 18 digits, with an optional minus, cannot overflow
   and reads as [int_of_string] reads it; any other token goes through
   [int_of_string_opt], then [float_of_string_opt]. *)
let parse_number p =
  let start = p.pos in
  let stop = number_end p.s start in
  p.pos <- stop;
  let neg = stop > start && String.unsafe_get p.s start = '-' in
  let first = if neg then start + 1 else start in
  let small =
    if stop - first >= 1 && stop - first <= 18 then digits p.s first stop 0
    else -1
  in
  if small >= 0 then Int (if neg then -small else small)
  else
    let tok = String.sub p.s start (stop - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> error p (Printf.sprintf "bad number %S" tok))

(* Containers nest at most this deep. The parser recurses once per
   level, so without a cap one frame of a million '[' holds the caller
   for tens of milliseconds and grows its stack by tens of megabytes;
   nothing the tools write comes near it. *)
let max_depth = 1024

(* [depth] counts the containers enclosing the value under the cursor. *)
let rec parse_value p depth =
  skip_ws p;
  if at_end p then error p "unexpected end of input"
  else
    match cur p with
    | ('{' | '[') when depth = max_depth ->
        error p (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | '{' ->
        advance p;
        skip_ws p;
        if (not (at_end p)) && cur p = '}' then begin
          advance p;
          Obj []
        end
        else parse_members p (depth + 1) []
    | '[' ->
        advance p;
        skip_ws p;
        if (not (at_end p)) && cur p = ']' then begin
          advance p;
          List []
        end
        else parse_elements p (depth + 1) []
    | '"' ->
        advance p;
        Str (parse_string_body p)
    | 't' -> literal p "true" (Bool true)
    | 'f' -> literal p "false" (Bool false)
    | 'n' -> literal p "null" Null
    | _ -> parse_number p

and parse_members p depth acc =
  skip_ws p;
  expect p '"';
  let k = parse_string_body p in
  skip_ws p;
  expect p ':';
  let v = parse_value p depth in
  skip_ws p;
  if at_end p then error p "expected , or } in object"
  else
    match cur p with
    | ',' ->
        advance p;
        parse_members p depth ((k, v) :: acc)
    | '}' ->
        advance p;
        Obj (List.rev ((k, v) :: acc))
    | _ -> error p "expected , or } in object"

and parse_elements p depth acc =
  let v = parse_value p depth in
  skip_ws p;
  if at_end p then error p "expected , or ] in array"
  else
    match cur p with
    | ',' ->
        advance p;
        parse_elements p depth (v :: acc)
    | ']' ->
        advance p;
        List (List.rev (v :: acc))
    | _ -> error p "expected , or ] in array"

let of_string s =
  let p = { s; pos = 0 } in
  match parse_value p 0 with
  | v ->
      skip_ws p;
      if p.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ---------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
