type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize = function
  | [] -> invalid_arg "Stats.summarize: empty"
  | xs ->
    let n = List.length xs in
    let fn = Float.of_int n in
    let mean = List.fold_left ( +. ) 0. xs /. fn in
    let sq_dev acc x = acc +. ((x -. mean) ** 2.) in
    let var = if n < 2 then 0. else List.fold_left sq_dev 0. xs /. (fn -. 1.) in
    {
      n;
      mean;
      stddev = sqrt var;
      min = List.fold_left Float.min Float.infinity xs;
      max = List.fold_left Float.max Float.neg_infinity xs;
    }

let ci95_halfwidth s = 1.96 *. s.stddev /. sqrt (Float.of_int s.n)

let overlaps a b =
  let lo x = x.mean -. ci95_halfwidth x and hi x = x.mean +. ci95_halfwidth x in
  lo a <= hi b && lo b <= hi a

let chi_square ~expected ~observed =
  if Array.length expected <> Array.length observed then
    invalid_arg "Stats.chi_square: length mismatch";
  let acc = ref 0. in
  Array.iteri
    (fun i e ->
      if e > 0. then acc := !acc +. (((observed.(i) -. e) ** 2.) /. e))
    expected;
  !acc

module Online = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. Float.of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean

  let stddev t =
    if t.n < 2 then 0. else sqrt (t.m2 /. Float.of_int (t.n - 1))
end
