type t = {
  warmup : int;
  window : int;
  period : int;
  seed : int option;
  rank_bands : int;
  ci_target : float;
}

let max_rank_bands = 64

(* The one validator. The period test is a difference, so huge fields
   cannot overflow past it. The target is keyed as [%.6f]: one that
   rendering cannot hold would share a neighbour's key (2.0000001 and
   2.0000004) or, below 5e-7, pose as the default. [+. 0.] folds -0
   into 0, which it keys as. *)
let make ?seed ?(rank_bands = 1) ?(ci_target = 0.) ~warmup ~window ~period () =
  let fail fmt = Printf.ksprintf Result.error fmt in
  if warmup < 0 then fail "sampling plan: warmup must be >= 0"
  else if window < 1 then fail "sampling plan: window must be >= 1"
  else if period < warmup || period - warmup < window then
    fail "sampling plan: period must be >= warmup + window"
  else if Option.fold ~none:false ~some:(fun s -> s < 0) seed then
    fail "sampling plan: seed must be >= 0"
  else if rank_bands < 1 || rank_bands > max_rank_bands then
    fail "rank bands must be between 1 and %d (--rank-bands)" max_rank_bands
  else if not (Float.is_finite ci_target && ci_target >= 0.) then
    fail "CI target must be a finite number >= 0 (--ci-target)"
  else if float_of_string (Printf.sprintf "%.6f" ci_target) <> ci_target then
    fail "CI target %s is not exact at 6 decimals (--ci-target)"
      (Float.to_string ci_target)
  else
    Ok { warmup; window; period; seed; rank_bands; ci_target = ci_target +. 0. }

let with_selection ?rank_bands ?ci_target t =
  make ?seed:t.seed
    ~rank_bands:(Option.value rank_bands ~default:t.rank_bands)
    ~ci_target:(Option.value ci_target ~default:t.ci_target)
    ~warmup:t.warmup ~window:t.window ~period:t.period ()

let of_string s =
  match String.split_on_char ':' s with
  | ([ _; _; _ ] | [ _; _; _; _ ]) as parts -> (
    match List.map int_of_string parts with
    | [ warmup; window; period ] -> make ~warmup ~window ~period ()
    | [ warmup; window; period; seed ] -> make ~seed ~warmup ~window ~period ()
    | _ -> assert false
    | exception Failure _ ->
      Error (Printf.sprintf "sampling plan %S: fields must be integers" s))
  | _ ->
    Error
      (Printf.sprintf "sampling plan %S: expected WARMUP:WINDOW:PERIOD[:SEED]"
         s)

let to_string t =
  match t.seed with
  | None -> Printf.sprintf "%d:%d:%d" t.warmup t.window t.period
  | Some s -> Printf.sprintf "%d:%d:%d:%d" t.warmup t.window t.period s

(* Knobs join a key only at non-default values: every key minted
   before they existed keeps its hex. *)
let key_lines = function
  | None -> [ "plan=-" ]
  | Some t ->
    ("plan=" ^ to_string t)
    :: (if t.rank_bands = 1 then []
        else [ Printf.sprintf "rank_bands=%d" t.rank_bands ])
    @ if t.ci_target = 0. then []
      else [ Printf.sprintf "ci_target=%.6f" t.ci_target ]

let slack t = t.period - t.warmup - t.window

let phase_stream t =
  match t.seed with
  | None -> fun () -> 0
  | Some seed ->
    let g = Bor_util.Prng.create ~seed in
    let bound = slack t + 1 in
    fun () -> Bor_util.Prng.int g bound

type estimate = {
  windows : int;
  cpi_mean : float;
  cpi_ci95 : float;
  cycles_estimate : float;
}

let estimate ~cpi_samples ~instructions =
  match cpi_samples with
  | [] -> { windows = 0; cpi_mean = 0.; cpi_ci95 = 0.; cycles_estimate = 0. }
  | samples ->
    let s = Bor_util.Stats.summarize samples in
    let ci = if s.n < 2 then 0. else Bor_util.Stats.ci95_halfwidth s in
    {
      windows = s.n;
      cpi_mean = s.mean;
      cpi_ci95 = ci;
      cycles_estimate = s.mean *. Float.of_int instructions;
    }
