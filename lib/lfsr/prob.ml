type t = { masks : int array (* index k-1 *) }

let build ~max_k ~width select =
  let mask_for k =
    let ps = Bit_select.positions select ~width ~k in
    List.fold_left (fun m p -> m lor (1 lsl p)) 0 ps
  in
  { masks = Array.init max_k (fun i -> mask_for (i + 1)) }

(* The hardware wires its gate masks once; here an engine is made per
   test vector, oracle run and sampled window, and rebuilding the table
   was most of what making one cost. A named selector's table depends
   only on (selector, width, max_k), so each is built once per process
   and shared: tables are never mutated after publication, and the list
   only grows, by compare-and-set, so any domain may read it unlocked.
   A [Custom] selector is a closure, which has no key, so it is built
   afresh. An invalid width raises in [build] before anything is
   published, hence on every call. *)
let shared : ((Bit_select.t * int * int) * t) list Atomic.t = Atomic.make []

let rec publish key t =
  let seen = Atomic.get shared in
  match List.assoc_opt key seen with
  | Some first -> first
  | None ->
    if Atomic.compare_and_set shared seen ((key, t) :: seen) then t
    else publish key t

let create ?(max_k = 16) ~width select =
  if max_k < 1 then invalid_arg "Prob.create: max_k must be positive";
  match select with
  | Bit_select.Custom _ -> build ~max_k ~width select
  | Contiguous | Spaced -> (
    let key = (select, width, max_k) in
    match List.assoc_opt key (Atomic.get shared) with
    | Some t -> t
    | None -> publish key (build ~max_k ~width select))

let taken t ~state ~k =
  if k < 1 || k > Array.length t.masks then invalid_arg "Prob.taken: bad k";
  let m = t.masks.(k - 1) in
  state land m = m

let mask t ~k =
  if k < 1 || k > Array.length t.masks then invalid_arg "Prob.mask: bad k";
  t.masks.(k - 1)
