(* Normalizes a `cutests --json` document for the @verdicts gate.

     verdicts.exe strip FILE    the document without its run-dependent
                                fields: each case's "wall_s" and the
                                top-level "workers" count
     verdicts.exe reports FILE  every case's race reports as text, one
                                block per case that has any

   Both print to stdout; a malformed document exits 2. *)

module J = Reporting.Mjson

let run_dependent = [ "wall_s"; "workers" ]

let rec strip = function
  | J.Obj kvs ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k run_dependent then None else Some (k, strip v))
           kvs)
  | J.List xs -> J.List (List.map strip xs)
  | v -> v

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let field key conv v =
  match Option.bind (J.member key v) conv with
  | Some x -> x
  | None -> fail "verdicts: missing or ill-typed field %S" key

let print_reports doc =
  List.iter
    (fun case ->
      match field "reports" J.to_list case with
      | [] -> ()
      | reports ->
          Printf.printf "== %s\n" (field "name" J.to_str case);
          List.iter
            (fun r ->
              Printf.printf "-- rank %d\n%s\n" (field "rank" J.to_int r)
                (field "report" J.to_str r))
            reports)
    (field "cases" J.to_list doc)

let () =
  match Sys.argv with
  | [| _; mode; file |] -> (
      let doc =
        match In_channel.with_open_bin file In_channel.input_all with
        | exception Sys_error msg -> fail "verdicts: %s" msg
        | text -> (
            match J.of_string text with
            | Ok doc -> doc
            | Error msg -> fail "verdicts: %s: %s" file msg)
      in
      match mode with
      | "strip" -> print_string (J.to_string_pretty (strip doc))
      | "reports" -> print_reports doc
      | _ -> fail "verdicts: unknown mode %S (strip|reports)" mode)
  | _ -> fail "usage: verdicts.exe (strip|reports) FILE"
