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

type kind = Counter | Histogram | Span

(* Every kind is one record. A counter's value is [count]; a histogram
   keeps [count]/[sum]/[max] and its buckets; a span keeps
   [count]/[sum] (its total)/[min]/[max]. Fields a kind does not use
   stay at their zero ([min] at its [max_int] sentinel, [buckets]
   empty), so reset, export and merge treat every kind alike. *)
type instrument = {
  name : string;
  kind : kind;
  unit_ : string;
  doc : string;
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
  buckets : int array;
  live : bool;
}

type counter = instrument
type histogram = instrument
type span = instrument
type scope = string

(* Power-of-two ("log2") buckets: bucket 0 counts value 0, bucket i
   counts values in [2^(i-1), 2^i - 1]. 63 buckets cover every
   non-negative OCaml int. *)
let histogram_buckets = 63

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
    (fun _ i ->
      i.count <- 0;
      i.sum <- 0;
      i.min <- max_int;
      i.max <- 0;
      Array.fill i.buckets 0 (Array.length i.buckets) 0)
    (state ()).registry

let scope name : scope = name

(* The registered instrument [name], made (zeroed) if there is none. *)
let intern st kind name unit_ doc =
  match Hashtbl.find_opt st.registry name with
  | Some i when i.kind = kind -> i
  | Some _ -> invalid_arg ("Telemetry: " ^ name ^ " re-registered as a different kind")
  | None ->
    let buckets =
      if kind = Histogram then Array.make histogram_buckets 0 else [||]
    in
    let i =
      { name; kind; unit_; doc; count = 0; sum = 0; min = max_int; max = 0;
        buckets; live = true }
    in
    Hashtbl.replace st.registry name i;
    i

(* Instruments made while the registry is disabled are never
   registered and never written (every recorder checks [live] first),
   so all kinds share one dead record and making one allocates
   nothing: per-run components are made per test vector and per oracle
   run with telemetry off. *)
let dead =
  { name = ""; kind = Counter; unit_ = ""; doc = ""; count = 0; sum = 0;
    min = max_int; max = 0; buckets = [||]; live = false }

let make kind sc unit_ doc name =
  let st = state () in
  if not st.enabled then dead else intern st kind (sc ^ "." ^ name) unit_ doc

(* Each creator applies [make] fully: a partial application would
   allocate a closure per call, registry off or not. *)
let counter sc ?(unit_ = "events") ?(doc = "") name =
  make Counter sc unit_ doc name

let histogram sc ?(unit_ = "events") ?(doc = "") name =
  make Histogram sc unit_ doc name

let span sc ?(unit_ = "cycles") ?(doc = "") name = make Span sc unit_ doc name

let incr c = if c.live then c.count <- c.count + 1
let add c n = if c.live then c.count <- c.count + n
let value c = c.count

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

(* A positive value's bucket is its bit length, so bucket i holds
   [2^(i-1), 2^i - 1] with no bound to overflow. *)
let bucket_of v =
  let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
  go 0 v

let observe h v =
  if h.live then begin
    let v = max 0 v in
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    if v > h.max then h.max <- v
  end

let record s d =
  if s.live then begin
    let d = max 0 d in
    s.count <- s.count + 1;
    s.sum <- s.sum + d;
    if d < s.min then s.min <- d;
    if d > s.max then s.max <- d
  end

(* ------------------------------------------------------------ snapshots *)

let sorted_instruments () =
  Hashtbl.fold (fun _ i acc -> i :: acc) (state ()).registry []
  |> List.sort (fun a b -> compare a.name b.name)

let counters () =
  List.filter_map
    (fun i -> if i.kind = Counter then Some (i.name, i.count) else None)
    (sorted_instruments ())

let find_counter name =
  match Hashtbl.find_opt (state ()).registry name with
  | Some i when i.kind = Counter -> Some i.count
  | _ -> None

(* -------------------------------------------------- cross-domain merge *)

(* An export is a deep copy of a registry's instruments — safe to hand
   to another domain, since it shares no mutable cell with the live
   registry. [absorb] folds one into the calling domain's registry,
   creating missing instruments; every merge operation (sum for
   counts, sums and buckets, min/max for extrema) is commutative and
   associative, so a parent absorbing per-window exports in any order
   ends up with exactly the totals a single-registry sequential run
   would have accumulated. *)

type export = instrument list

let export () =
  Hashtbl.fold
    (fun _ i acc -> { i with buckets = Array.copy i.buckets } :: acc)
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
        let local = intern st inc.kind inc.name inc.unit_ inc.doc in
        local.count <- local.count + inc.count;
        local.sum <- local.sum + inc.sum;
        (* The max_int empty-span sentinel survives the min merge. *)
        if inc.min < local.min then local.min <- inc.min;
        if inc.max > local.max then local.max <- inc.max;
        Array.iteri
          (fun b n -> local.buckets.(b) <- local.buckets.(b) + n)
          inc.buckets)
      ex

(* A never-recorded span shows [min] 0, not its sentinel. *)
let span_min s = if s.count = 0 then 0 else s.min

let to_json_value i =
  match i.kind with
  | Counter -> Json.Int i.count
  | Histogram ->
    (* Trailing empty buckets are trimmed so the JSON stays small; an
       explicit bucket list keeps the digest stable against resizing. *)
    let last = ref (-1) in
    Array.iteri (fun b n -> if n > 0 then last := b) i.buckets;
    let buckets =
      List.init (!last + 1) (fun b ->
          Json.Obj
            [
              ("le", Json.Int (if b = 0 then 0 else (1 lsl b) - 1));
              ("count", Json.Int i.buckets.(b));
            ])
    in
    Json.Obj
      [
        ("kind", Json.String "histogram");
        ("unit", Json.String i.unit_);
        ("count", Json.Int i.count);
        ("sum", Json.Int i.sum);
        ("max", Json.Int i.max);
        ("buckets", Json.List buckets);
      ]
  | Span ->
    Json.Obj
      [
        ("kind", Json.String "span");
        ("unit", Json.String i.unit_);
        ("count", Json.Int i.count);
        ("total", Json.Int i.sum);
        ("min", Json.Int (span_min i));
        ("max", Json.Int i.max);
      ]

let to_json () =
  Json.Obj (List.map (fun i -> (i.name, to_json_value i)) (sorted_instruments ()))

let scope_of_name n =
  match String.rindex_opt n '.' with
  | Some i -> String.sub n 0 i
  | None -> n

(* Grouped by scope first: in plain name order a child scope can sort
   into the middle of its parent's names ("a.b.y" between "a.x" and
   "a.z") and split the parent's group in two. *)
let pp ppf () =
  let key i = (scope_of_name i.name, i.name) in
  let instruments =
    List.sort (fun a b -> compare (key a) (key b)) (sorted_instruments ())
  in
  let current = ref "" in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun n i ->
      let sc = scope_of_name i.name in
      if sc <> !current then begin
        if n > 0 then Format.fprintf ppf "@,";
        Format.fprintf ppf "[%s]@," sc;
        current := sc
      end;
      match i.kind with
      | Counter ->
        Format.fprintf ppf "  %-42s %12d %s@," i.name i.count i.unit_
      | Histogram ->
        Format.fprintf ppf "  %-42s count %d sum %d max %d (%s)@," i.name
          i.count i.sum i.max i.unit_
      | Span ->
        Format.fprintf ppf "  %-42s count %d total %d min %d max %d (%s)@,"
          i.name i.count i.sum (span_min i) i.max i.unit_)
    instruments;
  Format.fprintf ppf "@]"
