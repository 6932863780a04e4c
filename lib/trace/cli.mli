(** [--trace FILE] support for binaries without their own option
    parser (the examples). *)

val setup : ?argv:string array -> unit -> unit
(** When "--trace FILE" appears in [argv] (default [Sys.argv]): enable
    the recorder now and write the Chrome trace-event JSON to FILE at
    process exit (progress note on stderr). No-op otherwise. *)
