(* Suppression lists, as in TSan's -fsanitize-blacklist / suppressions
   file. The paper's artifact ships cluster-specific suppression lists
   for false positives from system libraries; we support the same
   mechanism: a race whose current or previous origin contains one of
   the patterns is counted but not reported. *)

type t = { mutable patterns : string list; mutable suppressed : int }

let create () = { patterns = []; suppressed = 0 }

let add t pattern = t.patterns <- pattern :: t.patterns

let of_list patterns = { patterns; suppressed = 0 }

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0

let matches t (r : Report.t) =
  List.exists
    (fun p ->
      contains_sub ~sub:p r.Report.current.Report.origin
      || contains_sub ~sub:p r.Report.previous.Report.origin)
    t.patterns

(* Returns true when the report must be dropped. *)
let check t r =
  if matches t r then begin
    t.suppressed <- t.suppressed + 1;
    true
  end
  else false

let suppressed_count t = t.suppressed

(* Parse TSan suppressions-file syntax: one rule per line,
   "<kind>:<pattern>" with '#' comments. Only "race:" rules apply to
   data-race reports; other kinds (e.g. "thread:", "deadlock:") are
   accepted and ignored, as real TSan does for kinds it knows but the
   report type does not match. *)
let parse content =
  String.split_on_char '\n' content
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ':' with
           | Some i ->
               let kind = String.sub line 0 i in
               let pattern =
                 String.sub line (i + 1) (String.length line - i - 1)
               in
               if kind = "race" && pattern <> "" then Some pattern else None
           | None -> None)
