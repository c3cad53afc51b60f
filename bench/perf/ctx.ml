(* State shared by every workload of one run: options, the trace, the
   reference table, and the tally of operations attempted and failed. *)

type opts = {
  seed : int;
  seconds : float;
  quick : bool;
  trace : bool;
  bor : string;  (** the bor binary the serve workload starts *)
  root : string;  (** repository root: test/opt_corpus, bench/perf *)
}

(* Scratch files — server sockets, stores, trace_<workload>.json — go
   under this directory of the working directory: inside the build
   tree, which version control already ignores and [dune clean]
   removes. *)
let work = "_build/perf"

type t = {
  o : opts;
  tr : Trace.t;
  refs : Reference.t;
  mutable attempted : int;
  mutable failed : int;
  mutable setup_runs : int;  (** times set-up ran, timed or not *)
  mutable setup_times : float list;  (** set-up samples, newest first *)
  mutable setup_again : (unit -> unit) option;
      (** one more set-up sample, for [top_up_setup] *)
  mutable setup_spent : float;  (** time [top_up_setup] has taken *)
}

let reference_path o = Filename.concat o.root "bench/perf/reference.txt"

let create o =
  {
    o;
    tr = Trace.create ~enabled:o.trace;
    refs = Reference.load (reference_path o);
    attempted = 0;
    failed = 0;
    setup_runs = 0;
    setup_times = [];
    setup_again = None;
    setup_spent = 0.;
  }

(* One operation's checks: an empty list is a pass. A failing
   operation counts once however many of its checks failed. *)
let record c ~op errors =
  c.attempted <- c.attempted + 1;
  if errors <> [] then begin
    c.failed <- c.failed + 1;
    List.iter (fun e -> Printf.eprintf "perf: %s: check failed: %s\n%!" op e) errors
  end

let expect ~what expected actual =
  if expected = actual then []
  else [ Printf.sprintf "%s: expected %s, got %s" what expected actual ]

(* Compare [fields] against the reference row, when there is one, else
   against the first value this run saw for the same row (so repeats of
   one operation must agree even for seeds without a reference). *)
let seen : (string * string, (string * string) list) Hashtbl.t =
  Hashtbl.create 32

let check_fields c ~kind ~name fields =
  let expected =
    match Reference.find c.refs ~kind ~name ~seed:c.o.seed with
    | Some row -> Some row
    | None -> Hashtbl.find_opt seen (kind, name)
  in
  match expected with
  | None ->
    Hashtbl.replace seen (kind, name) fields;
    []
  | Some row ->
    List.concat_map
      (fun (k, v) ->
        match List.assoc_opt k row with
        | Some e -> expect ~what:(Printf.sprintf "%s %s %s" kind name k) e v
        | None -> [])
      fields

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + du (Filename.concat path f))
      0 (Sys.readdir path)
  | st -> st.Unix.st_size

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match In_channel.with_open_bin path In_channel.input_lines with
  | exception Sys_error _ -> 0.
  | lines ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some x -> x /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. lines

(* Run [f] and return its result with the process's peak RSS during
   it: the kernel's high-water mark is reset first (by writing 5 to
   /proc/self/clear_refs), so one operation's peak does not hide the
   next's. Where the reset is refused, the reading is the peak so far. *)
let with_peak_rss f =
  (try
     Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc ->
         output_string oc "5")
   with Sys_error _ -> ());
  let v = f () in
  (v, peak_rss_mb 0)

(* Set-up time. Set-up runs once untimed (so the heap has grown and the
   code is paged in), then is timed five times (three with --quick);
   after that, in an untraced run, [top_up_setup] times it again
   between the operations of the measured loop, for about
   [setup_share] of the loop's time. Slow
   periods on a shared host last about a second, longer than a block
   of repetitions at the start, so it is the spreading that keeps the
   median set-up time steady from run to run. A sample is the mean of
   a batch of repetitions lasting at least 1 ms, so that a set-up of
   microseconds is not lost in the clock's grain. [between] undoes a
   repetition, untimed. Returns the last initial repetition's value. *)
let setup_share = 0.05

let setup ?(between = fun _ -> ()) c f =
  let repeats = if c.o.quick then 3 else 5 in
  let run () =
    c.setup_runs <- c.setup_runs + 1;
    f ()
  in
  let sample ~undo =
    let rec go n spent undo =
      if n > 0 && spent >= 1e-3 then (Option.get undo, spent /. float_of_int n)
      else begin
        Option.iter between undo;
        let t0 = Trace.now () in
        let v = run () in
        go (n + 1) (spent +. (Trace.now () -. t0)) (Some v)
      end
    in
    go 0 0. undo
  in
  let warm = run () in
  Gc.full_major ();
  let rec block i last =
    if i < repeats then begin
      let v, t = sample ~undo:(Some last) in
      c.setup_times <- t :: c.setup_times;
      block (i + 1) v
    end
    else last
  in
  let last = block 0 warm in
  c.setup_again <-
    Some
      (fun () ->
        let v, t = sample ~undo:None in
        between v;
        c.setup_times <- t :: c.setup_times);
  last

let gc c =
  Trace.span c.tr "bench.gc" (fun _ -> Gc.full_major ())

(* Called after each operation of the measured loop: in an untraced
   run, take set-up samples until they make up [setup_share] of the
   time since [since], the loop's start. *)
let top_up_setup c ~since =
  let behind () = c.setup_spent < setup_share *. (Trace.now () -. since) in
  match c.setup_again with
  | Some again when (not (Trace.enabled c.tr)) && behind () ->
    (* The operation's garbage goes first, so that set-up and operation
       together do not grow the heap whose size the next operation's
       peak RSS starts from. *)
    Gc.full_major ();
    while behind () do
      let t0 = Trace.now () in
      again ();
      c.setup_spent <- c.setup_spent +. (Trace.now () -. t0)
    done
  | _ -> ()

(* Run [f] over [items] once in full, then keep cycling through them
   until [deadline]: every item gets at least one sample and the run
   measures for at least the requested time. *)
let cycle c ~deadline items f =
  let since = Trace.now () in
  let step x =
    f x;
    top_up_setup c ~since
  in
  List.iter step items;
  let rec go = function
    | _ when Trace.now () >= deadline -> ()
    | [] -> go items
    | x :: rest ->
      step x;
      go rest
  in
  go items

(* Per-key sample lists, kept in first-insertion order. *)
module Samples = struct
  type 'a t = { tbl : (string, 'a list) Hashtbl.t; mutable keys : string list }

  let create () = { tbl = Hashtbl.create 16; keys = [] }

  let add t k v =
    match Hashtbl.find_opt t.tbl k with
    | Some l -> Hashtbl.replace t.tbl k (v :: l)
    | None ->
      t.keys <- k :: t.keys;
      Hashtbl.replace t.tbl k [ v ]

  let get t k = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.tbl k))
  let keys t = List.rev t.keys
  let all t = List.concat_map (get t) (keys t)
  let best t k = List.fold_left Float.min infinity (get t k)

  (* The largest per-key median: the peak RSS of the hungriest item,
     robust to one operation's garbage collection running late. *)
  let max_median t =
    List.fold_left (fun m k -> Float.max m (Stats.median (get t k))) 0. (keys t)
end

(* Span self times grouped by layer and request: the traced numbers
   are reported per pass over the workload's items (kernels, targets),
   each item weighted once however many times the run reached it. *)
module Layers = struct
  type t = {
    selfs : (Trace.span * float) list;
    roots : (string, int) Hashtbl.t;  (** ops per request id *)
  }

  let of_trace ?(since = neg_infinity) ~root tr =
    let spans = List.filter (fun s -> s.Trace.start >= since) (Trace.spans tr) in
    let roots = Hashtbl.create 16 in
    List.iter
      (fun s ->
        if s.Trace.name = root then
          Hashtbl.replace roots s.Trace.req
            (1 + Option.value ~default:0 (Hashtbl.find_opt roots s.Trace.req)))
      spans;
    { selfs = Trace.self_times spans; roots }

  let matching t name = List.filter (fun (s, _) -> s.Trace.name = name) t.selfs

  let total t name = List.fold_left (fun a (_, x) -> a +. x) 0. (matching t name)

  let mean t name =
    match matching t name with
    | [] -> 0.
    | l -> total t name /. float_of_int (List.length l)

  (* Sum over request ids of (self time of [name] for that id / ops of
     that id). *)
  let per_pass t name =
    Hashtbl.fold
      (fun req ops acc ->
        let self =
          List.fold_left
            (fun a (s, x) -> if s.Trace.req = req then a +. x else a)
            0. (matching t name)
        in
        acc +. (self /. float_of_int ops))
      t.roots 0.

  let is_bench (s : Trace.span) = String.starts_with ~prefix:"bench." s.name

  (* Self time of the layer spans. A root span stands for a whole
     operation, so its self time is the part no layer accounts for; a
     bench.* span is the benchmark's own housekeeping. Both are left
     out, so that coverage measures the layer split. *)
  let covered t =
    List.fold_left
      (fun a ((s : Trace.span), x) ->
        if s.parent >= 0 && not (is_bench s) then a +. x else a)
      0. t.selfs

  (* Wall time of the spans [keep] selects. *)
  let duration t keep =
    List.fold_left
      (fun a ((s : Trace.span), _) -> if keep s then a +. (s.stop -. s.start) else a)
      0. t.selfs
end

let write_trace c ~workload =
  if Trace.enabled c.tr then begin
    mkdir_p work;
    let path = Filename.concat work ("trace_" ^ workload ^ ".json") in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Pjson.to_string (Trace.to_json (Trace.spans c.tr)));
        output_char oc '\n')
  end
