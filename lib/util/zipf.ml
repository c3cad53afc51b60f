type t = { cdf : float array; pmf : float array }

let create ~n ~alpha =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if alpha < 0. then invalid_arg "Zipf.create: alpha must be >= 0";
  let pmf = Array.init n (fun k -> 1. /. (Float.of_int (k + 1) ** alpha)) in
  let total = Array.fold_left ( +. ) 0. pmf in
  Array.iteri (fun k w -> pmf.(k) <- w /. total) pmf;
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun k p ->
      acc := !acc +. p;
      cdf.(k) <- !acc)
    pmf;
  cdf.(n - 1) <- 1.;
  { cdf; pmf }

let probability t k = t.pmf.(k)

let sample t rng =
  let u = Prng.float rng in
  (* Smallest index whose CDF value exceeds [u]. *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) > u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t.cdf - 1)
