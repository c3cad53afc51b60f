type spec = {
  name : string;
  methods : int;
  invocations : int;
  alpha : float;
  periodic_fraction : float;
  pattern : int list;
  runs : int;
  seed : int;
}

(* Loop-body cycles. Method ids used by patterns start at [methods] so
   the loop mass is attributable (and calibratable) separately from the
   Zipf-drawn background calls. *)
let two_leaf m = [ m; m + 1 ]

(* Nested-loop structure: an outer iteration runs one inner loop calling
   [m] 1024 times, then a second inner loop calling [m+1] 1024 times.
   The resulting cycle length (2048) resonates with a 2^13 sampling
   interval but not with 2^10 -- the pmd behaviour of Figures 9/10. *)
let nested_halves m =
  List.init 2048 (fun i -> if i < 1024 then m else m + 1)

(* Calibration: (methods, paper invocations in millions, zipf alpha,
   periodic fraction, pattern, loop runs). The jython entry is a single
   giant interpreter-style loop alternating two leaf methods -- the
   paper's footnote 7 resonance, biting at any power-of-two interval.
   The invocation counts are the paper's §4.2 listing. *)
let catalogue =
  [
    ("fop", (45, 7, 1.10, 0.02, `Two, 6));
    ("antlr", (65, 17, 1.10, 0.02, `Two, 8));
    ("bloat", (150, 93, 1.20, 0.03, `Two, 10));
    ("lusearch", (80, 108, 1.10, 0.03, `Two, 12));
    ("xalan", (120, 109, 1.15, 0.04, `Two, 10));
    ("jython", (100, 170, 1.20, 0.15, `Two, 1));
    ("pmd", (140, 195, 1.15, 0.10, `Nested, 1));
    ("luindex", (70, 212, 1.10, 0.02, `Two, 14));
  ]

let names = List.map fst catalogue

let spec ?(scale = 64) name =
  match List.assoc_opt name catalogue with
  | None -> invalid_arg (Printf.sprintf "Dacapo.spec: unknown benchmark %s" name)
  | Some (methods, millions, alpha, periodic_fraction, shape, runs) ->
    if scale <= 0 then invalid_arg "Dacapo.spec: scale must be positive";
    let pattern =
      match shape with
      | `Two -> two_leaf methods
      | `Nested -> nested_halves methods
    in
    {
      name;
      methods;
      invocations = millions * 1_000_000 / scale;
      alpha;
      periodic_fraction;
      pattern;
      runs;
      seed = Hashtbl.hash name;
    }

let events spec f =
  if spec.invocations <= 0 then invalid_arg "Dacapo.events: empty stream";
  let rng = Bor_util.Prng.create ~seed:spec.seed in
  let zipf = Bor_util.Zipf.create ~n:spec.methods ~alpha:spec.alpha in
  let pattern = Array.of_list spec.pattern in
  let pattern_total =
    Float.to_int (spec.periodic_fraction *. Float.of_int spec.invocations)
  in
  let run_len = pattern_total / max spec.runs 1 in
  let random_total = spec.invocations - (run_len * spec.runs) in
  (* Random-phase segment lengths: stick-breaking over runs+1 pieces so
     the loop runs sit at stream positions that vary by seed. *)
  let segments = spec.runs + 1 in
  let weights = Array.init segments (fun _ -> 0.2 +. Bor_util.Prng.float rng) in
  let wsum = Array.fold_left ( +. ) 0. weights in
  let seg_len i =
    Float.to_int (Float.of_int random_total *. weights.(i) /. wsum)
  in
  let emitted_random = ref 0 in
  let emit_random n =
    for _ = 1 to n do
      f (Bor_util.Zipf.sample zipf rng)
    done;
    emitted_random := !emitted_random + n
  in
  let emit_run () =
    for i = 0 to run_len - 1 do
      f pattern.(i mod Array.length pattern)
    done
  in
  for r = 0 to spec.runs - 1 do
    emit_random (seg_len r);
    emit_run ()
  done;
  (* Last segment absorbs all rounding so the total is exact. *)
  emit_random (random_total - !emitted_random)
