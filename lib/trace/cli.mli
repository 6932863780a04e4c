(** The one command-line contract of every binary and example, on
    [Stdlib.Arg]:

    - [-h], [-help] and [--help] print the usage on stdout and exit 0;
    - an unknown flag, a missing or malformed value, an out-of-range
      number or a value that looks like a flag prints the message and
      the usage on stderr and exits 2.

    Each flag is declared once, as a {!spec} whose doc string is its
    usage line. [Arg] also accepts [--flag=value]; the checks below see
    that form too. *)

type spec = Arg.key * Arg.spec * Arg.doc

val value : Arg.key -> (string -> unit) -> Arg.doc -> spec
(** A string-valued flag. A value that starts with ['-'] is a usage
    error: [--json --list] must not write a file named "--list". *)

val string : Arg.key -> string option ref -> Arg.doc -> spec
(** {!value} stored in an option; the last occurrence wins. *)

val int : ?min:int -> ?max:int -> Arg.key -> (int -> unit) -> Arg.doc -> spec
(** An integer flag; a value outside [[min, max]] is a usage error. *)

val workers : min:int -> Arg.key -> (int -> unit) -> Arg.doc -> spec
(** A worker-domain count: {!int} capped at what one process can
    spawn. *)

val float : min:float -> Arg.key -> (float -> unit) -> Arg.doc -> spec
(** A number flag; a value below [min] (or NaN) is a usage error. *)

val trace : spec
(** [--trace FILE]: arm this domain's flight recorder now and write its
    Chrome trace-event JSON to FILE at exit, with a one-line note on
    stderr. *)

val tracing : unit -> bool
(** Did the command line arm {!trace}? *)

val parse :
  prog:string -> ?usage:string -> ?anon:(string -> unit) -> spec list -> unit
(** Parse [Sys.argv] against the specs (plus [-h]/[--help]), under
    the contract above. [usage] is the header above the flag list
    (default "usage: PROG [options]"); [prog] prefixes every message.
    Positional arguments go to [anon] (default: each one is a usage
    error). *)

val usage_error : string -> 'a
(** A usage error found after parsing: print "PROG: MSG" and the usage
    on stderr, and exit 2 without writing a trace. *)
