(* cusand wire protocol: newline-delimited JSON frames over a
   Unix-domain socket, with the Reporting.Mjson schema as the payload
   format ("cusand/2"). One request per connection: the client writes a
   single frame, the daemon answers with a single frame when the job
   resolves (immediately for health/stats/cache hits, after execution
   otherwise) and both sides close.

   The robustness contract lives here as much as in the daemon loop:
   frames are size-bounded, a torn or hostile frame decodes to an
   explicit error (never an exception for the accept loop to trip
   over), and every reply is a self-describing JSON object so clients
   can be dumb and retry loops can be deterministic. *)

module Mjson = Reporting.Mjson

let schema = "cusand/2"

(* Requests from v1 clients are still understood (v1 and v2 share every
   request frame); replies always carry the current schema. *)
let accepted_schemas = [ "cusand/1"; schema ]

(* A request frame may not exceed this; the daemon answers anything
   longer with a protocol error instead of buffering unboundedly. *)
let max_frame = 1 lsl 20

(* --- jobs --------------------------------------------------------------- *)

type job =
  | Lint of { target : string }  (* a kirlint target id, e.g. "jacobi/..." *)
  | Soak of { case : string; seed : int; faults : string option }
      (* a testsuite case under an optional fault plan *)
  | Bench of { app : string; flavor : string }  (* one app/config cell *)
  | Boom  (* chaos drill: raises inside the worker, on purpose *)
  | Spin of { steps : int }
      (* wedge drill: spin in-sim until the step-budget watchdog fires;
         a worker-occupying job of tunable duration ending in a
         labelled stalled verdict *)

type request =
  | Submit of job
  | Health
  | Stats
  | Shutdown

(* Content address of a job: the canonical key is what makes the result
   cache correct — two requests with the same key are the same
   deterministic computation (soaks embed their seed and plan; bench
   cells are keyed on the cell, so repeats serve the cached
   measurement). *)
let job_key = function
  | Lint { target } -> "lint\x00" ^ target
  | Soak { case; seed; faults } ->
      Printf.sprintf "soak\x00%s\x00%d\x00%s" case seed
        (Option.value faults ~default:"-")
  | Bench { app; flavor } -> Printf.sprintf "bench\x00%s\x00%s" app flavor
  | Boom -> "boom"
  | Spin { steps } -> Printf.sprintf "spin\x00%d" steps

let job_digest j = Digest.to_hex (Digest.string (job_key j))

let job_describe = function
  | Lint { target } -> "lint " ^ target
  | Soak { case; seed; faults } ->
      Printf.sprintf "soak %s seed=%d%s" case seed
        (match faults with None -> "" | Some f -> " faults=" ^ f)
  | Bench { app; flavor } -> Printf.sprintf "bench %s/%s" app flavor
  | Boom -> "boom"
  | Spin { steps } -> Printf.sprintf "spin %d" steps

(* --- request encoding --------------------------------------------------- *)

let request_to_json (r : request) : Mjson.t =
  let open Mjson in
  let fields =
    match r with
    | Submit (Lint { target }) -> [ ("op", Str "lint"); ("target", Str target) ]
    | Submit (Soak { case; seed; faults }) ->
        [ ("op", Str "soak"); ("case", Str case); ("seed", Int seed) ]
        @ (match faults with None -> [] | Some f -> [ ("faults", Str f) ])
    | Submit (Bench { app; flavor }) ->
        [ ("op", Str "bench"); ("app", Str app); ("flavor", Str flavor) ]
    | Submit Boom -> [ ("op", Str "boom") ]
    | Submit (Spin { steps }) -> [ ("op", Str "spin"); ("steps", Int steps) ]
    | Health -> [ ("op", Str "health") ]
    | Stats -> [ ("op", Str "stats") ]
    | Shutdown -> [ ("op", Str "shutdown") ]
  in
  Obj (("schema", Str schema) :: fields)

let request_of_json (j : Mjson.t) : (request, string) result =
  let str k = Option.bind (Mjson.member k j) Mjson.to_str in
  let int k = Option.bind (Mjson.member k j) Mjson.to_int in
  match Mjson.member "schema" j |> Fun.flip Option.bind Mjson.to_str with
  | Some s when not (List.mem s accepted_schemas) ->
      Error (Printf.sprintf "unknown schema %S" s)
  | _ -> (
      match str "op" with
      | None -> Error "missing \"op\" field"
      | Some "lint" -> (
          match str "target" with
          | Some target -> Ok (Submit (Lint { target }))
          | None -> Error "lint: missing \"target\"")
      | Some "soak" -> (
          match str "case" with
          | Some case ->
              Ok
                (Submit
                   (Soak
                      {
                        case;
                        seed = Option.value (int "seed") ~default:0;
                        faults = str "faults";
                      }))
          | None -> Error "soak: missing \"case\"")
      | Some "bench" -> (
          match (str "app", str "flavor") with
          | Some app, Some flavor -> Ok (Submit (Bench { app; flavor }))
          | _ -> Error "bench: missing \"app\" or \"flavor\"")
      | Some "boom" -> Ok (Submit Boom)
      | Some "spin" -> (
          match int "steps" with
          | Some steps when steps > 0 -> Ok (Submit (Spin { steps }))
          | Some _ -> Error "spin: \"steps\" must be positive"
          | None -> Error "spin: missing \"steps\"")
      | Some "health" -> Ok Health
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some op -> Error (Printf.sprintf "unknown op %S" op))

let parse_request (line : string) : (request, string) result =
  match Mjson.of_string line with
  | Error msg -> Error ("bad JSON: " ^ msg)
  | Ok j -> request_of_json j

(* --- replies ------------------------------------------------------------ *)

let ok_envelope ~cached ~job ~elapsed_s =
  [
    ("schema", Mjson.Str schema);
    ("status", Mjson.Str "ok");
    ("job", Mjson.Str job);
    ("cached", Mjson.Bool cached);
    ("elapsed_s", Mjson.Float elapsed_s);
  ]

let ok_reply ?(cached = false) ~job ~elapsed_s result : Mjson.t =
  Mjson.Obj (ok_envelope ~cached ~job ~elapsed_s @ [ ("result", result) ])

(* The frame of [ok_reply] around a result already serialized, so a
   verdict is serialized once however many replies carry it. *)
let ok_frame ?(cached = false) ~job ~elapsed_s result =
  let b = Buffer.create (String.length result + 160) in
  Mjson.to_buffer_obj b (ok_envelope ~cached ~job ~elapsed_s) ~last:("result", result);
  Buffer.add_char b '\n';
  Buffer.contents b

(* A reaped job: the worker caught whatever escaped the engine, the
   slot was recycled, and this is the job's tombstone — the daemon-level
   analogue of a crashed rank's post-mortem. *)
let crashed_reply ~job ~error ~backtrace : Mjson.t =
  Mjson.Obj
    [
      ("schema", Mjson.Str schema);
      ("status", Mjson.Str "crashed");
      ("job", Mjson.Str job);
      ("post_mortem",
       Mjson.Obj
         [
           ("error", Mjson.Str error);
           ("backtrace",
            Mjson.List (List.map (fun l -> Mjson.Str l) backtrace));
         ]);
    ]

(* The busy reply's backoff hint, in abstract units the client folds
   into its deterministic Resilience schedule. Scales with how
   oversubscribed the daemon actually is rather than sitting constant:
   the overshoot past the high-water mark (0 while admission is
   enforcing the bound) plus the depth of work queued behind the
   running workers — the jobs that must finish before a retry can be
   admitted. *)
let retry_after_hint ~in_flight ~high_water ~queue_len =
  max 1 (in_flight - high_water + queue_len)

(* Load shed: the admission queue is past its high-water mark.
   [retry_after] is the {!retry_after_hint} backoff hint; cusanctl
   multiplies it into its deterministic Resilience backoff schedule. *)
let busy_reply ~retry_after ~in_flight ~high_water : Mjson.t =
  Mjson.Obj
    [
      ("schema", Mjson.Str schema);
      ("status", Mjson.Str "busy");
      ("retry_after", Mjson.Int retry_after);
      ("in_flight", Mjson.Int in_flight);
      ("high_water", Mjson.Int high_water);
    ]

let error_reply msg : Mjson.t =
  Mjson.Obj
    [
      ("schema", Mjson.Str schema);
      ("status", Mjson.Str "error");
      ("message", Mjson.Str msg);
    ]

(* --- framing ------------------------------------------------------------ *)

type read_error =
  | Closed  (** peer closed before sending anything *)
  | Truncated of string  (** EOF mid-frame; carries the partial bytes *)
  | Oversized of int  (** frame exceeded {!max_frame} *)

let read_error_to_string = function
  | Closed -> "connection closed"
  | Truncated partial ->
      Printf.sprintf "truncated frame (%d bytes, no newline)"
        (String.length partial)
  | Oversized n -> Printf.sprintf "oversized frame (> %d bytes)" n

(* Read one newline-terminated frame. Bounded: gives up past
   [max_frame] bytes so a hostile peer cannot balloon the daemon. Any
   bytes after the newline are ignored (the protocol is one frame per
   direction per connection). *)
let read_frame fd : (string, read_error) result =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let rec newline i n =
    if i = n then None
    else if Bytes.unsafe_get chunk i = '\n' then Some i
    else newline (i + 1) n
  in
  let rec go () =
    if Buffer.length buf > max_frame then Error (Oversized max_frame)
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 ->
          if Buffer.length buf = 0 then Error Closed
          else Error (Truncated (Buffer.contents buf))
      | n -> (
          match newline 0 n with
          | Some i ->
              Buffer.add_subbytes buf chunk 0 i;
              Ok (Buffer.contents buf)
          | None ->
              Buffer.add_subbytes buf chunk 0 n;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* receive timeout armed on the socket: treat like a torn frame *)
          if Buffer.length buf = 0 then Error Closed
          else Error (Truncated (Buffer.contents buf))
  in
  go ()

(* Write one frame. Raises on a broken peer; callers treat that as the
   client having walked away (the job result is lost, the daemon is
   not). *)
let write_frame_bytes fd line =
  let len = String.length line in
  let rec go off =
    if off < len then
      match Unix.write_substring fd line off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let frame (j : Mjson.t) =
  let b = Buffer.create 1024 in
  Mjson.to_buffer b j;
  Buffer.add_char b '\n';
  Buffer.contents b

let write_frame fd j = write_frame_bytes fd (frame j)
