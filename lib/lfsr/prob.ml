type t = { masks : int array (* index k-1 *) }

let create ?(max_k = 16) ~width select =
  if max_k < 1 then invalid_arg "Prob.create: max_k must be positive";
  let mask_for k =
    let ps = Bit_select.positions select ~width ~k in
    List.fold_left (fun m p -> m lor (1 lsl p)) 0 ps
  in
  { masks = Array.init max_k (fun i -> mask_for (i + 1)) }

let taken t ~state ~k =
  if k < 1 || k > Array.length t.masks then invalid_arg "Prob.taken: bad k";
  let m = t.masks.(k - 1) in
  state land m = m

let mask t ~k =
  if k < 1 || k > Array.length t.masks then invalid_arg "Prob.mask: bad k";
  t.masks.(k - 1)
