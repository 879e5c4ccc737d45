(* Order statistics, counter deltas and span self time: the arithmetic the
   benchmark reports with, kept apart from any I/O so it can be tested. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank: the [p]-th percentile of [n] samples is the sample of
   rank [ceil (p/100 * n)] (1-based) in ascending order. *)
let rank p n = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float n))))

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | _ ->
      let a = sorted xs in
      a.(rank p (Array.length a) - 1)

(* Samples that lie strictly beyond the [p]-th percentile of [n]. *)
let beyond p n = n - rank p n

(* The percentile rule: a percentile is reported only with at least this
   many samples beyond it. *)
let min_beyond = 10

(* The highest of the usual percentiles that [n] samples can report. *)
let highest_percentile n =
  List.find_opt (fun p -> beyond p n >= min_beyond) [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Fewest samples for which the [p]-th percentile can be reported: 200
   for p95. *)
let samples_needed p =
  let rec go n = if beyond p n >= min_beyond then n else go (n + 1) in
  go 1

(* Quartiles as Python's [statistics.quantiles (xs, n=4)] computes them
   (the default "exclusive" method), so the spread read here is the one
   a reader gets from the same ten values in Python. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: needs two samples";
  let n = 4 and m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float (n - delta)) +. (a.(j) *. float delta)) /. float n)
    [ 1; 2; 3 ]

(* Python's [statistics.median]: the mean of the middle pair when even. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The median over groups of each group's nearest-rank median. When a mix
   of equally frequent groups with distinct costs puts the pooled median
   on the border between two groups, the pooled value is the tail of one
   of them; this one is the mean of the two groups' medians. *)
let median_of_groups keyed =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (k, x) ->
      Hashtbl.replace groups k (x :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    keyed;
  median (Hashtbl.fold (fun _ xs acc -> percentile 50. xs :: acc) groups [])

(* Distance between the first and third quartile, as a share of the
   median. *)
let quartile_spread xs =
  match quartiles xs with
  | [ q1; _; q3 ] -> (q3 -. q1) /. median xs
  | _ -> assert false

(* Counter deltas between two daemon stats replies
   ([Omni_service.Counters.to_json] lines). *)
module Counters = Omni_service.Counters

type delta = {
  hits : int;
  misses : int;
  evictions : int;
  full_verify : int;
  cert_checks : int;
  submits : int;
  modules : int;
  dedup_hits : int;
}

let delta ~before ~after =
  let b = Counters.of_json before and a = Counters.of_json after in
  {
    hits = a.s_hits - b.s_hits;
    misses = a.s_misses - b.s_misses;
    evictions = a.s_evictions - b.s_evictions;
    full_verify = a.s_cert_full_verify - b.s_cert_full_verify;
    cert_checks = a.s_cert_checks - b.s_cert_checks;
    submits = a.s_submits - b.s_submits;
    modules = a.s_modules - b.s_modules;
    dedup_hits = a.s_dedup_hits - b.s_dedup_hits;
  }

let zero =
  { hits = 0; misses = 0; evictions = 0; full_verify = 0; cert_checks = 0; submits = 0;
    modules = 0; dedup_hits = 0 }

let add a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    full_verify = a.full_verify + b.full_verify;
    cert_checks = a.cert_checks + b.cert_checks;
    submits = a.submits + b.submits;
    modules = a.modules + b.modules;
    dedup_hits = a.dedup_hits + b.dedup_hits;
  }

(* Hits over cache consultations in the window; [None] when the window
   never consulted the cache. *)
let hit_ratio d =
  match d.hits + d.misses with
  | 0 -> None
  | n -> Some (float d.hits /. float n)

(* Self time of a span: its duration minus the part of its interval that
   its children cover (overlapping children are counted once). Spans are
   (start, end) pairs in seconds. *)
let self_time (s0, s1) children =
  let clipped =
    List.filter_map
      (fun (c0, c1) ->
        let c0 = Float.max c0 s0 and c1 = Float.min c1 s1 in
        if c1 > c0 then Some (c0, c1) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (c0, c1) ->
        match cur with
        | None -> (acc, Some (c0, c1))
        | Some (a, b) when c0 <= b -> (acc, Some (a, Float.max b c1))
        | Some (a, b) -> (acc +. (b -. a), Some (c0, c1)))
      (0., None) clipped
  in
  let covered =
    match last with Some (a, b) -> covered +. (b -. a) | None -> covered
  in
  s1 -. s0 -. covered
