(* Order statistics for the benchmark's reports and for [compare].

   Quartiles follow Python's [statistics.quantiles(data, n=4)] (the
   default "exclusive" method), so a spread computed here matches the
   one an outside script computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's exclusive method: m = n + 1, cut point i at i*m/4 with the
   index clamped to [1, n-1] and exact integer interpolation weights. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median: the run-to-run
   spread the benchmark's bounds are checked against. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then if q3 -. q1 = 0. then 0. else infinity
  else (q3 -. q1) /. Float.abs m

(* Nearest-rank percentile, in exact integer arithmetic on tenths of a
   percent so p99.9 of 10000 samples is rank 9990, not 9991. *)
let rank ~n p =
  let tenths = int_of_float (Float.round (p *. 10.)) in
  ((tenths * n) + 999) / 1000

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (min (n - 1) (rank ~n p - 1)))

let tail_candidates = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The highest percentile with at least ten samples beyond it, as the
   benchmark reports tails: nearest-rank percentile p of n samples
   leaves n - rank samples above it. *)
let tail_percentile n =
  List.find_opt
    (fun p ->
      let r = rank ~n p in
      r >= 1 && n - r >= 10)
    tail_candidates

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
