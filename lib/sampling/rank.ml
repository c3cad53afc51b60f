type signature = {
  instructions : int;
  loads : int;
  stores : int;
  branches : int;
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  mispredicts : int;
}

let sub a b =
  {
    instructions = a.instructions - b.instructions;
    loads = a.loads - b.loads;
    stores = a.stores - b.stores;
    branches = a.branches - b.branches;
    l1i_misses = a.l1i_misses - b.l1i_misses;
    l1d_misses = a.l1d_misses - b.l1d_misses;
    l2_misses = a.l2_misses - b.l2_misses;
    mispredicts = a.mispredicts - b.mispredicts;
  }

(* The proxy's weights are round numbers in the vicinity of the default
   config's latencies (L1 miss -> L2 hit 8 cycles, L2 miss -> memory
   140, a mispredict costs roughly a frontend refill). Only the induced
   ranking matters, so they are fixed rather than derived from the live
   Config — which keeps this module free of uarch dependencies and the
   ranking stable across configurations. *)
let w_l1 = 8.
let w_l2 = 140.
let w_mispredict = 12.
let w_mem_op = 0.5

let score s =
  if s.instructions <= 0 then 0.
  else
    let n = Float.of_int s.instructions in
    let penalty =
      (w_l1 *. Float.of_int (s.l1i_misses + s.l1d_misses))
      +. (w_l2 *. Float.of_int s.l2_misses)
      +. (w_mispredict *. Float.of_int s.mispredicts)
      +. (w_mem_op *. Float.of_int (s.loads + s.stores))
    in
    1. +. (penalty /. n)

type 'a selector = {
  bands : int;
  rank0 : int;  (* seeded phase of the cycling order statistic *)
  mutable pending : ('a * float * int) list;  (* newest first *)
  mutable n_candidates : int;
  mutable n_sets : int;
}

let selector ?(seed = 0) ~bands () =
  if bands < 1 then invalid_arg "Rank.selector: bands must be >= 1";
  { bands; rank0 = abs seed mod bands; pending = []; n_candidates = 0; n_sets = 0 }

let candidates t = t.n_candidates
let sets t = t.n_sets

(* Rank the pending set by (score, arrival order) — the arrival index
   makes ties (all-identical signatures included) deterministic — and
   take the cycling order statistic, clamped for a partial final set. *)
let select t =
  let members =
    List.sort
      (fun (_, sa, ia) (_, sb, ib) ->
        match Float.compare sa sb with 0 -> compare ia ib | c -> c)
      (List.rev t.pending)
  in
  t.pending <- [];
  let size = List.length members in
  let rank = min ((t.rank0 + t.n_sets) mod t.bands) (size - 1) in
  t.n_sets <- t.n_sets + 1;
  let payload, _, _ = List.nth members rank in
  payload

let push t payload sg =
  t.pending <- (payload, score sg, t.n_candidates) :: t.pending;
  t.n_candidates <- t.n_candidates + 1;
  if List.length t.pending >= t.bands then Some (select t) else None

let drain t = if t.pending = [] then None else Some (select t)
