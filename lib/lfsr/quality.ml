type report = {
  samples : int;
  ones_fraction : float;
  serial_correlation : float;
  longest_run : int;
  chi2_pairs : float;
}

let of_bools bits =
  let n = Array.length bits in
  if n < 2 then invalid_arg "Quality: need at least two samples";
  let ones = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bits in
  let p = Float.of_int ones /. Float.of_int n in
  (* Lag-1 autocorrelation of the 0/1 stream. *)
  let mean = p in
  let num = ref 0. and den = ref 0. in
  let v b = (if b then 1. else 0.) -. mean in
  for i = 0 to n - 2 do
    num := !num +. (v bits.(i) *. v bits.(i + 1))
  done;
  Array.iter (fun b -> den := !den +. (v b *. v b)) bits;
  let corr = if !den = 0. then 0. else !num /. !den in
  let longest =
    let best = ref 1 and cur = ref 1 in
    for i = 1 to n - 1 do
      if bits.(i) = bits.(i - 1) then incr cur else cur := 1;
      if !cur > !best then best := !cur
    done;
    !best
  in
  let pair_counts = Array.make 4 0. in
  for i = 0 to n - 2 do
    let idx = (if bits.(i) then 2 else 0) + if bits.(i + 1) then 1 else 0 in
    pair_counts.(idx) <- pair_counts.(idx) +. 1.
  done;
  let expected = Array.make 4 (Float.of_int (n - 1) /. 4.) in
  {
    samples = n;
    ones_fraction = p;
    serial_correlation = corr;
    longest_run = longest;
    chi2_pairs = Bor_util.Stats.chi_square ~expected ~observed:pair_counts;
  }

let bit_stream lfsr ~position ~samples =
  let bits =
    Array.init samples (fun _ ->
        let v = Lfsr.step lfsr in
        Bor_util.Bits.bit v position)
  in
  of_bools bits

let take_signal lfsr prob ~k =
  let taken = Prob.taken prob ~state:(Lfsr.peek lfsr) ~k in
  ignore (Lfsr.step lfsr);
  taken

let take_stream lfsr prob ~k ~samples =
  of_bools (Array.init samples (fun _ -> take_signal lfsr prob ~k))

let conditional_take_rate lfsr prob ~k ~samples =
  let prev = ref (take_signal lfsr prob ~k) in
  let takes_after_take = ref 0 and takes = ref 0 in
  for _ = 1 to samples do
    let cur = take_signal lfsr prob ~k in
    if !prev then begin
      incr takes;
      if cur then incr takes_after_take
    end;
    prev := cur
  done;
  if !takes = 0 then 0.
  else Float.of_int !takes_after_take /. Float.of_int !takes

let lsb_stream lfsr samples =
  Array.init samples (fun _ -> Lfsr.step lfsr land 1 = 1)

let runs_chi2 lfsr ~samples ~max_run =
  if max_run < 1 then invalid_arg "Quality.runs_chi2";
  let bits = lsb_stream lfsr samples in
  let counts = Array.make max_run 0. in
  let record len = counts.(min len max_run - 1) <- counts.(min len max_run - 1) +. 1. in
  let run = ref 1 in
  for i = 1 to samples - 1 do
    if bits.(i) = bits.(i - 1) then incr run
    else begin
      record !run;
      run := 1
    end
  done;
  record !run;
  let total = Array.fold_left ( +. ) 0. counts in
  (* Ideal coin: P(run = k) = 2^-k, last bin absorbs the tail. *)
  let expected =
    Array.init max_run (fun i ->
        let p =
          if i = max_run - 1 then 1. /. Float.of_int (1 lsl (max_run - 1))
          else 1. /. Float.of_int (1 lsl (i + 1))
        in
        p *. total)
  in
  Bor_util.Stats.chi_square ~expected ~observed:counts

let poker_chi2 lfsr ~samples ~m =
  if m < 1 || m > 16 then invalid_arg "Quality.poker_chi2";
  let words = samples / m in
  let counts = Array.make (1 lsl m) 0. in
  for _ = 1 to words do
    let w = ref 0 in
    for _ = 1 to m do
      w := (!w lsl 1) lor (Lfsr.step lfsr land 1)
    done;
    counts.(!w) <- counts.(!w) +. 1.
  done;
  let expected =
    Array.make (1 lsl m) (Float.of_int words /. Float.of_int (1 lsl m))
  in
  Bor_util.Stats.chi_square ~expected ~observed:counts
