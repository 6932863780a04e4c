(* Durable result store for the cusand cache: a crash-safe append-only
   journal plus a periodic snapshot, both made of length-prefixed,
   checksummed Mjson frames under one state directory.

   Frame layout (binary, fixed 8-byte header):

     +--------+--------+----------------+
     | len u32| sum u32| payload (len B)|
     +--------+--------+----------------+

   [len] is the payload byte count, big-endian; [sum] is an Adler-32
   checksum of the payload. The payload is one Mjson object
   [{"digest": hex, "result": verdict}]; the store takes and returns
   each verdict as its JSON text, which goes into the payload as it is.
   A reader accepts a prefix of valid frames and stops at the first
   torn or corrupt one — so a [kill -9] mid-append costs at most the
   entry being written, never a committed entry and never a corrupt
   verdict served later.

   Compaction folds journal + snapshot into a fresh snapshot written to
   a temp file, fsynced, and renamed into place before the journal is
   truncated. The crash windows are all benign:
   - before the rename: the old snapshot + full journal still hold
     every committed entry;
   - between rename and truncate: the journal's entries are replayed
     on top of the new snapshot — duplicates by digest, which replay
     collapses (same digest, same deterministic verdict), never losses.
   Recovery therefore needs no generation counters: snapshot first,
   then journal, last write per digest wins. *)

module Mjson = Reporting.Mjson

let journal_file dir = Filename.concat dir "cache.journal"
let snapshot_file dir = Filename.concat dir "cache.snapshot"
let snapshot_tmp dir = Filename.concat dir "cache.snapshot.tmp"

(* Adler-32: two 16-bit running sums mod 65521. Small, stdlib-only, and
   plenty to catch torn writes and bit flips in frames this size. *)
let checksum (s : string) : int =
  let base = 65521 in
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod base;
      b := (!b + !a) mod base)
    s;
  (!b lsl 16) lor !a

(* --- frame encoding ------------------------------------------------------ *)

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  b

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame_of_payload (payload : string) : string =
  let len = String.length payload in
  let b = Buffer.create (len + 8) in
  Buffer.add_bytes b (be32 len);
  Buffer.add_bytes b (be32 (checksum payload));
  Buffer.add_string b payload;
  Buffer.contents b

let entry_payload ~digest (result : string) : string =
  let b = Buffer.create (String.length result + 64) in
  Mjson.to_buffer_obj b [ ("digest", Mjson.Str digest) ] ~last:("result", result);
  Buffer.contents b

(* A payload is parsed whole, so a frame that is not valid JSON is
   skipped, and its result is printed back to text: that is the payload
   bytes of the result for every frame [entry_payload] wrote, and the
   text a cache of trees would have served for any other. *)
let entry_of_payload (payload : string) : (string * string) option =
  match Mjson.of_string payload with
  | Error _ -> None
  | Ok j -> (
      match
        ( Mjson.member "digest" j |> Fun.flip Option.bind Mjson.to_str,
          Mjson.member "result" j )
      with
      | Some digest, Some result -> Some (digest, Mjson.to_string result)
      | _ -> None)

(* An upper bound on one frame's payload, to reject a corrupt length
   field before it allocates gigabytes. Results are protocol frames,
   so the protocol bound (plus headroom) is the natural ceiling. *)
let max_payload = 4 * Protocol.max_frame

type tail = Clean | Torn of string
(* [Torn why] means the file carried trailing bytes that do not form a
   valid frame; a recovering reader keeps the valid prefix and
   truncates the rest (a crash mid-append, or tail corruption). *)

(* Scan one file into its valid frame prefix. Returns the decoded
   payloads, the byte offset where validity ended, and why. *)
let scan_file (path : string) : string list * int * tail =
  match
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  with
  | exception Sys_error _ -> ([], 0, Clean)
  | s ->
      let n = String.length s in
      let rec go off acc =
        if off = n then (List.rev acc, off, Clean)
        else if off + 8 > n then
          (List.rev acc, off, Torn "truncated frame header")
        else
          let len = read_be32 s off in
          let sum = read_be32 s (off + 4) in
          if len < 0 || len > max_payload then
            (List.rev acc, off, Torn (Printf.sprintf "bad length %d" len))
          else if off + 8 + len > n then
            (List.rev acc, off, Torn "truncated frame payload")
          else
            let payload = String.sub s (off + 8) len in
            if checksum payload <> sum then
              (List.rev acc, off, Torn "checksum mismatch")
            else go (off + 8 + len) (payload :: acc)
      in
      go 0 []

(* --- the open store ------------------------------------------------------ *)

type t = {
  dir : string;
  mutable oc : out_channel; (* journal, open for append *)
  mutable appended : int; (* entries appended since the last compaction *)
  mutable recovered : int; (* entries replayed at open *)
  mutable truncated : string option; (* tail diagnosis at open, if torn *)
}

type recovery = {
  entries : (string * string) list; (* last write per digest wins *)
  replayed : int;
  torn_tail : string option;
}

(* Decode payloads into (digest, result) entries; frames that parse as
   valid JSON but not as entries are skipped (forward compatibility
   with future frame kinds), last write per digest wins. *)
let fold_entries payloads =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun p ->
      match entry_of_payload p with
      | None -> ()
      | Some (digest, result) ->
          if not (Hashtbl.mem tbl digest) then order := digest :: !order;
          Hashtbl.replace tbl digest result)
    payloads;
  List.rev_map (fun d -> (d, Hashtbl.find tbl d)) !order

let recover ~dir : recovery =
  (* A leftover snapshot temp file is a compaction that died before its
     rename; its contents are still fully covered by the old snapshot
     plus the journal, so it is just litter. *)
  (try Unix.unlink (snapshot_tmp dir) with Unix.Unix_error _ | Sys_error _ -> ());
  let snap, _, _ = scan_file (snapshot_file dir) in
  let jour, valid_end, tail = scan_file (journal_file dir) in
  (* Truncate a torn journal tail in place so the next append starts at
     the last committed frame, not after garbage. *)
  (match tail with
  | Clean -> ()
  | Torn _ -> (
      try
        let fd =
          Unix.openfile (journal_file dir) [ Unix.O_WRONLY ] 0o644
        in
        Unix.ftruncate fd valid_end;
        Unix.close fd
      with Unix.Unix_error _ -> ()));
  let entries = fold_entries (snap @ jour) in
  {
    entries;
    replayed = List.length entries;
    torn_tail = (match tail with Clean -> None | Torn why -> Some why);
  }

let open_store ~dir : t * recovery =
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  let r = recover ~dir in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
      (journal_file dir)
  in
  ( {
      dir;
      oc;
      appended = 0;
      recovered = r.replayed;
      truncated = r.torn_tail;
    },
    r )

let append t ~digest (result : string) =
  output_string t.oc (frame_of_payload (entry_payload ~digest result));
  (* Out of the process's buffers on every append: a kill -9 any time
     after [append] returns can cost at most a torn final frame, which
     recovery truncates. (Surviving power loss too would need fsync;
     the threat model here is the daemon dying, not the host.) *)
  flush t.oc;
  t.appended <- t.appended + 1

let appended_since_compact t = t.appended
let recovered_entries t = t.recovered
let torn_tail t = t.truncated

(* Fold the current committed state into a fresh snapshot: write to a
   temp file, fsync, rename over the old snapshot, then truncate the
   journal. See the header comment for why every crash window in this
   sequence is benign. *)
let compact t ~(entries : (string * string) list) =
  let tmp = snapshot_tmp t.dir in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  List.iter
    (fun (digest, result) ->
      output_string oc (frame_of_payload (entry_payload ~digest result)))
    entries;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Unix.rename tmp (snapshot_file t.dir);
  (* The snapshot now owns every committed entry; restart the journal. *)
  close_out t.oc;
  t.oc <-
    open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644
      (journal_file t.dir);
  t.appended <- 0

let close t = try close_out t.oc with Sys_error _ -> ()
