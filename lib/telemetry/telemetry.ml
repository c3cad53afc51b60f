(* Structured counters, histograms and span timers for the simulator.

   The registry is global and disabled by default. Instruments created
   while the registry is disabled are dead objects: recording into them
   is a single load-and-branch, and they are never registered — so a
   run with telemetry off observes nothing and allocates (almost)
   nothing. Instruments created while enabled register themselves under
   "<scope>.<name>"; creating the same name twice returns the same
   instrument, which is how per-run components (every `Pipeline.create`
   makes fresh caches, predictors, ...) aggregate into one registry.

   Determinism: nothing in here reads a clock. Spans and histograms
   measure quantities the caller supplies (simulated cycles, sizes),
   so snapshots are pure functions of the simulated work — the property
   the bench digest check (@bench-check) is built on. *)

type counter = {
  c_name : string;
  c_unit : string;
  c_doc : string;
  mutable c_value : int;
  c_live : bool;
}

(* Power-of-two ("log2") buckets: bucket 0 counts value 0, bucket i
   counts values in [2^(i-1), 2^i - 1]. 63 buckets cover every
   non-negative OCaml int. *)
let histogram_buckets = 63

type histogram = {
  h_name : string;
  h_unit : string;
  h_doc : string;
  h_counts : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_live : bool;
}

type span = {
  s_name : string;
  s_unit : string;
  s_doc : string;
  mutable s_count : int;
  mutable s_total : int;
  mutable s_min : int;
  mutable s_max : int;
  s_live : bool;
}

type instrument =
  | Counter of counter
  | Histogram of histogram
  | Span of span

type scope = string

(* The registry is domain-local: each OCaml 5 domain sees its own
   enabled flag and instrument table, so worker domains (parallel
   sampled windows, bench experiment pools) record without
   synchronisation and ship their registries back via
   {!export}/{!absorb}. Single-domain programs observe exactly the old
   global-registry behavior — the main domain's DLS slot IS the global
   registry. Instruments themselves are still plain mutable records:
   they must never be shared across domains (they are not, since
   creation registers them domain-locally). *)
type state = {
  mutable enabled : bool;
  registry : (string, instrument) Hashtbl.t;
}

let state_key =
  Domain.DLS.new_key (fun () ->
      { enabled = false; registry = Hashtbl.create 64 })

let[@inline] state () = Domain.DLS.get state_key

let set_enabled b = (state ()).enabled <- b
let is_enabled () = (state ()).enabled

let clear () = Hashtbl.reset (state ()).registry

let reset () =
  Hashtbl.iter
    (fun _ instr ->
      match instr with
      | Counter c -> c.c_value <- 0
      | Histogram h ->
        Array.fill h.h_counts 0 histogram_buckets 0;
        h.h_count <- 0;
        h.h_sum <- 0;
        h.h_max <- 0
      | Span s ->
        s.s_count <- 0;
        s.s_total <- 0;
        s.s_min <- max_int;
        s.s_max <- 0)
    (state ()).registry

let scope name : scope = name

let full_name sc name = sc ^ "." ^ name

let register st name instr same =
  match Hashtbl.find_opt st.registry name with
  | Some existing -> (
    match same existing with
    | Some v -> v
    | None -> invalid_arg ("Telemetry: " ^ name ^ " re-registered as a different kind"))
  | None ->
    Hashtbl.replace st.registry name instr;
    (match same instr with Some v -> v | None -> assert false)

(* Instruments made while the registry is disabled are never
   registered and never written (every recorder checks [live] first),
   so each kind has one shared dead record and making one allocates
   nothing: per-run components are made per test vector and per oracle
   run with telemetry off. *)
let dead_counter =
  { c_name = ""; c_unit = ""; c_doc = ""; c_value = 0; c_live = false }

let dead_histogram =
  { h_name = ""; h_unit = ""; h_doc = ""; h_counts = [||];
    h_count = 0; h_sum = 0; h_max = 0; h_live = false }

let dead_span =
  { s_name = ""; s_unit = ""; s_doc = "";
    s_count = 0; s_total = 0; s_min = max_int; s_max = 0; s_live = false }

let counter sc ?(unit_ = "events") ?(doc = "") name =
  let st = state () in
  if not st.enabled then dead_counter
  else
    let n = full_name sc name in
    let fresh =
      { c_name = n; c_unit = unit_; c_doc = doc; c_value = 0; c_live = true }
    in
    register st n (Counter fresh) (function Counter c -> Some c | _ -> None)

let histogram sc ?(unit_ = "events") ?(doc = "") name =
  let st = state () in
  if not st.enabled then dead_histogram
  else
    let n = full_name sc name in
    let fresh =
      { h_name = n; h_unit = unit_; h_doc = doc;
        h_counts = Array.make histogram_buckets 0;
        h_count = 0; h_sum = 0; h_max = 0; h_live = true }
    in
    register st n (Histogram fresh) (function Histogram h -> Some h | _ -> None)

let span sc ?(unit_ = "cycles") ?(doc = "") name =
  let st = state () in
  if not st.enabled then dead_span
  else
    let n = full_name sc name in
    let fresh =
      { s_name = n; s_unit = unit_; s_doc = doc;
        s_count = 0; s_total = 0; s_min = max_int; s_max = 0; s_live = true }
    in
    register st n (Span fresh) (function Span s -> Some s | _ -> None)

let incr c = if c.c_live then c.c_value <- c.c_value + 1
let add c n = if c.c_live then c.c_value <- c.c_value + n
let value c = c.c_value

(* Counter families backed by a component's own counts: those counts
   are the only per-event store, and [last] is what makes [publish]
   add deltas, so publishing twice never double-counts. *)
type 's family = {
  fields : ('s -> int) array;
  f_counters : counter array;
  last : int array;  (* each field's value at the last [publish] *)
}

let family sc table =
  {
    fields = Array.map (fun (_, _, _, f) -> f) table;
    f_counters =
      Array.map
        (fun (name, unit_, doc, _) -> counter sc ~unit_ ~doc name)
        table;
    last = Array.make (Array.length table) 0;
  }

let publish p s =
  Array.iteri
    (fun i f ->
      let v = f s in
      add p.f_counters.(i) (v - p.last.(i));
      p.last.(i) <- v)
    p.fields

let restart p = Array.fill p.last 0 (Array.length p.last) 0

let bucket_of v =
  if v <= 0 then 0
  else
    (* bucket i holds [2^(i-1), 2^i). *)
    let rec go i b = if b > v then i else go (i + 1) (b * 2) in
    go 1 2

let observe h v =
  if h.h_live then begin
    let v = max 0 v in
    h.h_counts.(bucket_of v) <- h.h_counts.(bucket_of v) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v > h.h_max then h.h_max <- v
  end

let record s d =
  if s.s_live then begin
    let d = max 0 d in
    s.s_count <- s.s_count + 1;
    s.s_total <- s.s_total + d;
    if d < s.s_min then s.s_min <- d;
    if d > s.s_max then s.s_max <- d
  end

(* ------------------------------------------------------------ snapshots *)

let name_of = function
  | Counter c -> c.c_name
  | Histogram h -> h.h_name
  | Span s -> s.s_name

let sorted_instruments () =
  Hashtbl.fold (fun _ i acc -> i :: acc) (state ()).registry []
  |> List.sort (fun a b -> compare (name_of a) (name_of b))

let counters () =
  List.filter_map
    (function Counter c -> Some (c.c_name, c.c_value) | _ -> None)
    (sorted_instruments ())

let find_counter name =
  match Hashtbl.find_opt (state ()).registry name with
  | Some (Counter c) -> Some c.c_value
  | _ -> None

(* -------------------------------------------------- cross-domain merge *)

(* An export is a deep copy of a registry's instruments — safe to hand
   to another domain, since it shares no mutable cell with the live
   registry. [absorb] folds one into the calling domain's registry,
   creating missing instruments; every merge operation (sum for
   counters/histogram buckets/span totals, min/max for extrema) is
   commutative and associative, so a parent absorbing per-window
   exports in any order ends up with exactly the totals a
   single-registry sequential run would have accumulated. *)

type export = instrument list

let export () =
  Hashtbl.fold
    (fun _ i acc ->
      (match i with
      | Counter c -> Counter { c with c_value = c.c_value }
      | Histogram h -> Histogram { h with h_counts = Array.copy h.h_counts }
      | Span s -> Span { s with s_count = s.s_count })
      :: acc)
    (state ()).registry []

(* Swap in a fresh registry for the duration of [f]: the caller's own
   instruments are untouchable while [f] runs, and everything [f]
   registers/records lands in a private registry that is exported and
   dropped. This is what lets one domain execute another job's work
   unit (a sampled window from the serve window queue) and ship the
   delta to the owning job without either registry contaminating the
   other. The previous registry — including its enabled flag — is
   restored even when [f] raises. *)
let isolated ~enabled f =
  let prev = Domain.DLS.get state_key in
  Domain.DLS.set state_key { enabled; registry = Hashtbl.create 64 };
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set state_key prev)
    (fun () ->
      let v = f () in
      (v, export ()))

let absorb ex =
  let st = state () in
  if st.enabled then
    List.iter
      (fun inc ->
        match inc with
        | Counter c ->
          let local =
            register st c.c_name
              (Counter { c with c_value = 0; c_live = true })
              (function Counter x -> Some x | _ -> None)
          in
          local.c_value <- local.c_value + c.c_value
        | Histogram h ->
          let local =
            register st h.h_name
              (Histogram
                 {
                   h with
                   h_counts = Array.make histogram_buckets 0;
                   h_count = 0;
                   h_sum = 0;
                   h_max = 0;
                   h_live = true;
                 })
              (function Histogram x -> Some x | _ -> None)
          in
          for i = 0 to histogram_buckets - 1 do
            local.h_counts.(i) <- local.h_counts.(i) + h.h_counts.(i)
          done;
          local.h_count <- local.h_count + h.h_count;
          local.h_sum <- local.h_sum + h.h_sum;
          if h.h_max > local.h_max then local.h_max <- h.h_max
        | Span s ->
          let local =
            register st s.s_name
              (Span
                 {
                   s with
                   s_count = 0;
                   s_total = 0;
                   s_min = max_int;
                   s_max = 0;
                   s_live = true;
                 })
              (function Span x -> Some x | _ -> None)
          in
          local.s_count <- local.s_count + s.s_count;
          local.s_total <- local.s_total + s.s_total;
          (* The max_int empty-span sentinel survives the min merge. *)
          if s.s_min < local.s_min then local.s_min <- s.s_min;
          if s.s_max > local.s_max then local.s_max <- s.s_max)
      ex

let histogram_json h =
  (* Trailing empty buckets are trimmed so the JSON stays small; an
     explicit bucket list keeps the digest stable against resizing. *)
  let last = ref (-1) in
  Array.iteri (fun i n -> if n > 0 then last := i) h.h_counts;
  let buckets =
    List.init (!last + 1) (fun i ->
        Json.Obj
          [
            ("le", Json.Int (if i = 0 then 0 else (1 lsl i) - 1));
            ("count", Json.Int h.h_counts.(i));
          ])
  in
  Json.Obj
    [
      ("kind", Json.String "histogram");
      ("unit", Json.String h.h_unit);
      ("count", Json.Int h.h_count);
      ("sum", Json.Int h.h_sum);
      ("max", Json.Int h.h_max);
      ("buckets", Json.List buckets);
    ]

let span_json s =
  Json.Obj
    [
      ("kind", Json.String "span");
      ("unit", Json.String s.s_unit);
      ("count", Json.Int s.s_count);
      ("total", Json.Int s.s_total);
      ("min", Json.Int (if s.s_count = 0 then 0 else s.s_min));
      ("max", Json.Int s.s_max);
    ]

let to_json () =
  Json.Obj
    (List.map
       (function
         | Counter c -> (c.c_name, Json.Int c.c_value)
         | Histogram h -> (h.h_name, histogram_json h)
         | Span s -> (s.s_name, span_json s))
       (sorted_instruments ()))

let scope_of_name n =
  match String.rindex_opt n '.' with
  | Some i -> String.sub n 0 i
  | None -> n

(* Grouped by scope first: in plain name order a child scope can sort
   into the middle of its parent's names ("a.b.y" between "a.x" and
   "a.z") and split the parent's group in two. *)
let pp ppf () =
  let key i = (scope_of_name (name_of i), name_of i) in
  let instruments =
    List.sort (fun a b -> compare (key a) (key b)) (sorted_instruments ())
  in
  let current = ref "" in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i instr ->
      let sc = scope_of_name (name_of instr) in
      if sc <> !current then begin
        if i > 0 then Format.fprintf ppf "@,";
        Format.fprintf ppf "[%s]@," sc;
        current := sc
      end;
      match instr with
      | Counter c ->
        Format.fprintf ppf "  %-42s %12d %s@," c.c_name c.c_value c.c_unit
      | Histogram h ->
        Format.fprintf ppf "  %-42s count %d sum %d max %d (%s)@," h.h_name
          h.h_count h.h_sum h.h_max h.h_unit
      | Span s ->
        Format.fprintf ppf "  %-42s count %d total %d min %d max %d (%s)@,"
          s.s_name s.s_count s.s_total
          (if s.s_count = 0 then 0 else s.s_min)
          s.s_max s.s_unit)
    instruments;
  Format.fprintf ppf "@]"
