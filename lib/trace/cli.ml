(* The shared strict argument parser: every binary and example declares
   its flags as Arg specs and parses them here, so they all keep one
   exit-status contract (0 help, 2 usage error, message and usage on
   stderr). *)

type spec = Arg.key * Arg.spec * Arg.doc

let prog = ref ""
let usage_text = ref ""
let bad fmt = Printf.ksprintf (fun msg -> raise (Arg.Bad msg)) fmt

let value key f doc =
  ( key,
    Arg.String
      (fun v ->
        if String.length v > 0 && v.[0] = '-' then
          bad "option '%s' needs a value, got the flag-shaped '%s'" key v
        else f v),
    doc )

let string key r doc = value key (fun v -> r := Some v) doc

let int ?(min = min_int) ?(max = max_int) key f doc =
  ( key,
    Arg.Int
      (fun n ->
        if min <= n && n <= max then f n
        else if max = max_int then
          bad "option '%s' expects an integer of at least %d, got %d" key min n
        else bad "option '%s' expects an integer from %d to %d, got %d" key min max n),
    doc )

(* OCaml 5.1 runs at most 128 domains per process, the main one
   included, and Pool.create spawns exactly the count it is given: a
   larger count would die in Domain.spawn halfway through start-up
   instead of here, as a usage error. *)
let max_workers = 127
let workers ~min key f doc = int ~min ~max:max_workers key f doc

let float ~min key f doc =
  ( key,
    Arg.Float
      (fun x ->
        if x >= min then f x
        else bad "option '%s' expects a number of at least %g, got %g" key min x),
    doc )

(* --- --trace ------------------------------------------------------------- *)

let trace_path = ref None

let write_trace () =
  match !trace_path with
  | None -> ()
  | Some path -> (
      let events = Recorder.events () in
      (* stderr: stdout must stay byte-identical to an untraced run *)
      match Chrome.write_file path events with
      | () ->
          Printf.eprintf "trace: wrote %s (%d events, %d dropped)\n%!" path
            (List.length events) (Recorder.dropped ())
      | exception Sys_error msg ->
          Printf.eprintf "trace: cannot write %s\n%!" msg)

let trace =
  value "--trace"
    (fun path ->
      if !trace_path = None then at_exit write_trace;
      trace_path := Some path;
      Recorder.enable ())
    "FILE record a flight-recorder trace (Chrome trace-event JSON)"

let tracing () = !trace_path <> None

(* --- parsing ------------------------------------------------------------- *)

let parse ~prog:name ?(usage = "usage: " ^ name ^ " [options]")
    ?(anon = bad "unexpected argument '%s'") specs =
  prog := name;
  let help () = raise (Arg.Help !usage_text) in
  (* Arg.align leaves a single space after the longest "FLAG ARG";
     doubling the first space of every doc widens the gutter to two *)
  let widen (key, spec, doc) =
    match String.index_opt doc ' ' with
    | None -> (key, spec, doc)
    | Some i ->
        (key, spec, String.sub doc 0 i ^ " " ^ String.sub doc i (String.length doc - i))
  in
  let specs =
    Arg.align
      (List.map widen
         (specs
         @ [
             ("-h", Arg.Unit help, " print this help and exit");
             ("-help", Arg.Unit help, "");
             ("--help", Arg.Unit help, " print this help and exit");
           ]))
  in
  usage_text := Arg.usage_string specs usage;
  (* Arg prefixes its messages with argv.(0): make that the tool's name *)
  let argv =
    Array.init
      (Int.max 1 (Array.length Sys.argv))
      (fun i -> if i = 0 then name else Sys.argv.(i))
  in
  match Arg.parse_argv ~current:(ref 0) argv specs anon usage with
  | () -> ()
  | exception Arg.Help text ->
      print_string text;
      exit 0
  | exception Arg.Bad text ->
      trace_path := None;
      prerr_string text;
      exit 2

let usage_error msg =
  trace_path := None;
  Printf.eprintf "%s: %s\n%s%!" !prog msg !usage_text;
  exit 2
