(** Suppression lists, as in ThreadSanitizer's suppressions file.

    The paper's artifact ships cluster-specific suppression lists for
    false positives from system libraries; this module implements the
    same mechanism. A race whose current or previous origin contains one
    of the patterns is counted but not reported. *)

type t

val create : unit -> t
val of_list : string list -> t

val add : t -> string -> unit
(** Add a substring pattern. *)

val matches : t -> Report.t -> bool
(** Does any pattern match the report (without counting)? *)

val check : t -> Report.t -> bool
(** [check t r] is [true] when the report must be dropped; increments
    the suppressed counter when it is. *)

val suppressed_count : t -> int

val parse : string -> string list
(** Parse TSan suppressions-file syntax: one ["<kind>:<pattern>"] rule
    per line, ['#'] comments. Only ["race:"] rules apply to data-race
    reports; other kinds are accepted and ignored. *)
