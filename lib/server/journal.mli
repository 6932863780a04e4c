(** Durable result store for the cusand cache: an append-only journal
    of length-prefixed, Adler-32-checksummed Mjson frames plus a
    periodic snapshot, under one state directory. A verdict goes in and
    comes out as its JSON text ([Mjson.to_string] of the result), the
    form the daemon's cache holds it in.

    Crash contract: a committed entry ([append] returned) survives any
    subsequent [kill -9]; recovery accepts the valid frame prefix of
    each file and truncates a torn or corrupt tail, so the store never
    loses a committed verdict and never serves a corrupt one. Compaction
    (snapshot-tmp → fsync → rename → journal truncate) only ever leaves
    states that recover to the same committed set — duplicates by
    digest collapse under replay (deterministic engine: same digest,
    same verdict). *)

module Mjson = Reporting.Mjson

val journal_file : string -> string
(** [dir ^ "/cache.journal"] *)

val snapshot_file : string -> string
(** [dir ^ "/cache.snapshot"] *)

val checksum : string -> int
(** Adler-32 of the payload bytes (exposed for tests). *)

val frame_of_payload : string -> string
(** One wire frame: 4-byte big-endian length, 4-byte big-endian
    Adler-32, payload (exposed for tests to craft hostile files). *)

val entry_payload : digest:string -> string -> string
(** [entry_payload ~digest text] is the payload of one cache entry
    frame, [Mjson.to_string (Obj [("digest", Str digest); ("result", r)])]
    for [text = Mjson.to_string r], built around [text] without parsing
    it. *)

type tail = Clean | Torn of string

val scan_file : string -> string list * int * tail
(** Decode a file into its valid frame-payload prefix, the byte offset
    where validity ended, and the tail diagnosis. A missing file is an
    empty clean scan. *)

type t
(** An open store: journal held open for append. *)

type recovery = {
  entries : (string * string) list;
      (** committed (digest, result text) pairs, snapshot first then
          journal, last write per digest winning; a result is printed
          back to compact text, so an entry written by {!append} comes
          back byte for byte *)
  replayed : int;
  torn_tail : string option;  (** why the journal tail was truncated *)
}

val recover : dir:string -> recovery
(** Read-only recovery of [dir] (also truncates a torn journal tail in
    place, so the next append lands after the last valid frame). *)

val open_store : dir:string -> t * recovery
(** Create [dir] if needed, recover, and open the journal for append. *)

val append : t -> digest:string -> string -> unit
(** Append one committed entry and flush it out of the process — after
    this returns, the entry survives [kill -9]. *)

val appended_since_compact : t -> int

val recovered_entries : t -> int

val torn_tail : t -> string option

val compact : t -> entries:(string * string) list -> unit
(** Fold the full committed state into a fresh snapshot (tmp → fsync →
    rename) and truncate the journal. *)

val close : t -> unit
