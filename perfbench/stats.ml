(* Order statistics and the regression rules the benchmark applies to
   them. Quartiles follow Python's [statistics.quantiles(xs, n=4)]
   (the "exclusive" method), so a spread computed here equals the one
   Python computes from the same values. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles(xs, n=4)]: cut points with exclusive
   interpolation, index clamped to [1, n-1] as CPython does. One sample
   repeats itself; none gives nan. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

(* Nearest-rank percentile, [p] in (0, 100), to a tenth of a percent. *)
let rank p n = ((int_of_float (Float.round (p *. 10.)) * n) + 999) / 1000

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (rank p n - 1)))

(* The highest percentile of the ladder that leaves at least ten
   samples beyond it, or [None] when even p90 has fewer: a tail
   estimate resting on a handful of samples is noise. *)
let tail_percentile n =
  List.fold_left
    (fun acc p -> if n - rank p n >= 10 then Some p else acc)
    None [ 90.; 99.; 99.9 ]

type better = Lower | Higher

(* Signed change from [base] to [head] in the "worse" direction: > 0
   means [head] is worse. Relative to [base]. *)
let worsening better ~base ~head =
  if base = 0. then 0.
  else
    match better with
    | Lower -> (head -. base) /. Float.abs base
    | Higher -> (base -. head) /. Float.abs base

(* The change a metric may make before it counts: the bound is relative,
   widened by an absolute slack (in the metric's unit) for metrics such
   as set-up time whose small values make a share too tight. *)
let tolerance ~bound ~slack ~base = Float.max (bound *. Float.abs base) slack

(* Does [head] exceed the allowed regression? *)
let beyond_bound better ~bound ~slack ~base ~head =
  let allowed = tolerance ~bound ~slack ~base in
  match better with
  | Lower -> head -. base > allowed
  | Higher -> base -. head > allowed

type verdict = Agree | Better | Worse | Unresolved

(* Failed operations tolerate no slack: one failed run is a regression. *)
let fail_verdict ~failed_runs = if failed_runs > 0 then Worse else Agree

let verdict_string = function
  | Agree -> "agree"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* The comparison rule of [compare]. A side whose own interquartile
   range exceeds the tolerance cannot resolve a change that small,
   unless every head run beats (or loses to) every base run. Otherwise a
   median worse beyond the tolerance is a regression, and one better by
   more than both the bound and the base spread is a gain. *)
let judge better ~bound ~slack ~base ~head =
  let mb = median base and mh = median head in
  let lo xs = List.fold_left Float.min infinity xs
  and hi xs = List.fold_left Float.max neg_infinity xs in
  let beats a b = match better with Lower -> hi a < lo b | Higher -> lo a > hi b in
  let separated = beats head base || beats base head in
  let noisy xs =
    let q1, q2, q3 = quartiles xs in
    q3 -. q1 > tolerance ~bound ~slack ~base:q2
  in
  let noisy = noisy base || noisy head in
  if noisy && not separated then Unresolved
  else if beyond_bound better ~bound ~slack ~base:mb ~head:mh then Worse
  else if -.worsening better ~base:mb ~head:mh > Float.max bound (spread base)
  then Better
  else Agree
