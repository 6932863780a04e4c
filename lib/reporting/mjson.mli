(** Minimal JSON: a value type, a compact and a pretty printer, and a
    recursive-descent parser, with no dependency outside the stdlib.
    Covers the JSON subset the tools emit: finite floats ([nan] and
    infinities print as [null]), strings as opaque bytes (control bytes
    escaped, UTF-8 passed through).

    The codec does not allocate per byte: the writer escapes straight
    into its output buffer and the parser reads the input in place. Its
    output bytes, parsed values and error messages are pinned against a
    reference model by the differential properties in
    [test/test_mjson.ml]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact JSON: no whitespace between tokens. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the bytes of {!to_string}. *)

val to_buffer_obj : Buffer.t -> (string * t) list -> last:string * string -> unit
(** [to_buffer_obj b fields ~last:(key, text)] appends the bytes of
    [to_string (Obj (fields @ [(key, v)]))] for [text = to_string v]:
    a value serialized once goes into any number of envelopes as it
    is, without being parsed or printed again. *)

val to_string_pretty : t -> string
(** One element per line, two-space indent, trailing newline: for
    artifacts that get committed and diffed. *)

val of_string : string -> (t, string) result
(** Parse one JSON document, surrounded by optional whitespace. An
    [Error] names the byte offset where parsing stopped. A number that
    reads as an OCaml [int] is an [Int]; any other number is a
    [Float]. Arrays and objects nest at most 1024 deep: the container
    that would open level 1025 is an error. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** The first binding of a key in an object. *)

val to_list : t -> t list option
val to_float : t -> float option
(** [Int]s widen to floats. *)

val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option
