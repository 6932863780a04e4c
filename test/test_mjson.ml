(* The JSON codec against its reference model (mjson_ref.ml, the codec
   before it stopped allocating per byte): for random values the two
   writers print the same bytes, [to_buffer_obj] included, and for
   random and mutated documents the two parsers return the same value
   or the same error text. *)

module M = Reporting.Mjson
module R = Mjson_ref

let any_byte = QCheck.Gen.(map Char.chr (0 -- 255))

(* Every byte, weighted towards the ones the writer escapes. *)
let str_gen =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, any_byte);
             (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '/'; '\127'; '\200'; '\255' ]);
             (4, printable);
           ])
      (0 -- 12))

let int_gen =
  QCheck.Gen.(
    frequency
      [
        (4, small_signed_int);
        (2, int);
        ( 1,
          oneofl
            [
              min_int; max_int; 0; -1; 999_999_999_999_999_999; -999_999_999_999_999_999;
              1_000_000_000_000_000_000;
            ] );
      ])

(* Integral, huge, tiny, nan and infinite floats, and the boundaries of
   the writer's "%.1f" form. *)
let float_gen =
  QCheck.Gen.(
    frequency
      [
        (2, float);
        (2, map float_of_int small_signed_int);
        (2, map2 (fun m e -> ldexp m e) (float_range (-1.) 1.) (int_range (-1074) 1023));
        ( 2,
          oneofl
            [
              0.; -0.; 0.1; 1. /. 3.; 4.35; 1e15; -1e15; 1e15 -. 1.; 1e16; 1e17;
              123456789012345678.; 1e300; -1e300; 1e-300; 5e-324; Float.max_float;
              Float.min_float; Float.nan; Float.infinity; Float.neg_infinity;
            ] );
      ])

let value_gen : M.t QCheck.Gen.t =
  QCheck.Gen.(
    sized_size (0 -- 4)
    @@ fix (fun self n ->
           let scalar =
             frequency
               [
                 (1, return M.Null);
                 (1, map (fun b -> M.Bool b) bool);
                 (3, map (fun i -> M.Int i) int_gen);
                 (3, map (fun f -> M.Float f) float_gen);
                 (3, map (fun s -> M.Str s) str_gen);
               ]
           in
           if n = 0 then scalar
           else
             frequency
               [
                 (3, scalar);
                 (1, map (fun l -> M.List l) (list_size (0 -- 4) (self (n - 1))));
                 ( 1,
                   map (fun l -> M.Obj l) (list_size (0 -- 4) (pair str_gen (self (n - 1)))) );
               ]))

(* Compact and pretty bytes of a value, and of an object that gets the
   value as already-serialized text after some fields. *)
let prop_writer_matches_reference =
  QCheck.Test.make ~name:"writer = reference" ~count:1000 ~long_factor:20
    (QCheck.make
       ~print:(fun (v, fields, key) ->
         Printf.sprintf "%S after %S as %S" (R.to_string v) (R.to_string (M.Obj fields)) key)
       QCheck.Gen.(triple value_gen (list_size (0 -- 3) (pair str_gen value_gen)) str_gen))
    (fun (v, fields, key) ->
      let spliced =
        let b = Buffer.create 16 in
        M.to_buffer_obj b fields ~last:(key, M.to_string v);
        Buffer.contents b
      in
      M.to_string v = R.to_string v
      && M.to_string_pretty v = R.to_string_pretty v
      && spliced = R.to_string (M.Obj (fields @ [ (key, v) ])))

let insert s k piece = String.sub s 0 k ^ piece ^ String.sub s k (String.length s - k)

(* A valid document, compact or pretty, then (mostly) one mutation:
   truncation, a flipped byte, a NUL, a [\u] escape, trailing garbage. *)
let mutated_gen =
  QCheck.Gen.(
    pair value_gen bool >>= fun (v, pretty) ->
    let doc = if pretty then M.to_string_pretty v else M.to_string v in
    let n = String.length doc in
    let at = int_bound n in
    frequency
      [
        (1, return doc);
        (2, map (fun k -> String.sub doc 0 k) at);
        ( 2,
          map2
            (fun k x ->
              if n = 0 then doc
              else
                let k = k mod n in
                let b = Bytes.of_string doc in
                Bytes.set b k (Char.chr (Char.code doc.[k] lxor (1 + x)));
                Bytes.to_string b)
            at (int_bound 254) );
        (1, map (fun k -> insert doc k "\000") at);
        ( 2,
          map2 (insert doc) at
            (oneofl
               [
                 "\\u0041"; "\\u00e9"; "\\u20ac"; "\\uffff"; "\\u12"; "\\u"; "\\uZZZZ";
                 "\\u_1_2"; "\\u+123"; "\\u0x12"; "\"\\u0000\""; "\"\\u00e9\\n\"";
                 "\"\\ud83d\""; "\"a\\q\""; "\"\\";
               ]) );
        ( 2,
          map (fun g -> doc ^ g)
            (oneof
               [
                 oneofl [ " "; " x"; ","; "]"; "}"; "\n\t "; "0"; "null"; "\"" ];
                 string_size ~gen:any_byte (1 -- 4);
               ]) );
      ])

(* Short strings over the bytes JSON is made of, plus any byte. *)
let bytes_gen =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (1, any_byte);
             (5, oneofl (List.of_seq (String.to_seq "{}[]:,\"\\0123456789-+.eEtrufalsn \n")));
           ])
      (0 -- 30))

(* Number tokens around the parser's fast path for short integers:
   runs of up to 22 digits, most near the 19 where [max_int] lies and
   half of them led by a 9, with signs, fractions and exponents. *)
let number_gen =
  QCheck.Gen.(
    let digit = map (fun d -> Char.chr (48 + d)) (0 -- 9) in
    let digits =
      map2
        (fun lead rest -> if lead then "9" ^ rest else rest)
        bool
        (string_size ~gen:digit (frequency [ (1, 0 -- 22); (3, 16 -- 20) ]))
    in
    map3
      (fun sign digits tail -> sign ^ digits ^ tail)
      (oneofl [ ""; ""; "-"; "+"; "--"; "[" ])
      digits
      (oneofl [ ""; ""; ""; ".5"; "e3"; "E-2"; "."; "e"; "e400"; " "; ","; "]" ]))

(* The reference parser has no nesting cap, so both properties must stay
   far below the codec's 1024 levels: [value_gen] nests at most 4 deep,
   a [bytes_gen] string holds at most 30 brackets, and a number token
   at most one. *)
let prop_parser_matches_reference =
  QCheck.Test.make ~name:"parser = reference" ~count:1000 ~long_factor:20
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(frequency [ (2, bytes_gen); (4, mutated_gen); (2, number_gen) ]))
    (fun s -> compare (M.of_string s) (R.of_string s) = 0)

(* A million '[' stops at the container that would open level 1025,
   instead of recursing a million times. *)
let nesting_capped () =
  let cap = String.make 1024 '[' ^ String.make 1024 ']' in
  Alcotest.(check bool) "1024 levels parse" true (Result.is_ok (M.of_string cap));
  Alcotest.(check (result reject string))
    "1,000,000 levels"
    (Error "at offset 1024: nesting deeper than 1024 levels")
    (M.of_string (String.make 1_000_000 '['))

let () =
  Alcotest.run "mjson"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_writer_matches_reference;
          QCheck_alcotest.to_alcotest prop_parser_matches_reference;
          Alcotest.test_case "nesting capped" `Quick nesting_capped;
        ] );
    ]
