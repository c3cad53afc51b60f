(* Spans recorded by the benchmark around its calls into each layer.

   A span has a name (the layer, named after the module it calls), a
   start and end on the monotonic clock, the span that caused it, and a
   request id shared by every span of one request. Spans stay in memory
   and are written out when the run ends. A layer's self time is its
   spans' durations minus the part of each interval their child spans
   cover. With tracing off, [span] only calls its function, so traced
   and untraced runs go through the same code. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  req : string;
  parent : int;  (** [-1] for a root span *)
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
}

let create ~enabled = { enabled; lock = Mutex.create (); next = 0; spans = [] }
let enabled t = t.enabled

let add t ?(parent = -1) ?(req = "") name ~start ~stop =
  if not t.enabled then -1
  else begin
    Mutex.lock t.lock;
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; name; req; parent; start; stop } :: t.spans;
    Mutex.unlock t.lock;
    id
  end

(* The id is reserved before [f] runs so children can name their
   parent; the span itself is recorded when [f] returns or raises. *)
let span t ?(parent = -1) ?(req = "") name f =
  if not t.enabled then f (-1)
  else begin
    Mutex.lock t.lock;
    let id = t.next in
    t.next <- id + 1;
    Mutex.unlock t.lock;
    let start = now () in
    let record () =
      let stop = now () in
      Mutex.lock t.lock;
      t.spans <- { id; name; req; parent; start; stop } :: t.spans;
      Mutex.unlock t.lock
    in
    match f id with
    | v ->
      record ();
      v
    | exception e ->
      record ();
      raise e
  end

let spans t =
  Mutex.lock t.lock;
  let l = t.spans in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare a.id b.id) l

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

let to_json spans =
  let t0 = match spans with [] -> 0. | s :: _ -> s.start in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) t0 spans in
  Pjson.Arr
    (List.map
       (fun s ->
         Pjson.Obj
           [
             ("id", Pjson.Num (float_of_int s.id));
             ("name", Pjson.Str s.name);
             ("req", Pjson.Str s.req);
             ("parent", Pjson.Num (float_of_int s.parent));
             ("start_s", Pjson.Num (s.start -. t0));
             ("end_s", Pjson.Num (s.stop -. t0));
           ])
       spans)

(* What recording one span costs where the benchmark runs: the trace
   reports its own overhead as spans recorded times this cost. *)
let per_span_cost () =
  let t = create ~enabled:true in
  let n = 20_000 in
  let t0 = now () in
  for _ = 1 to n do
    span t "calibrate" (fun _ -> ())
  done;
  (now () -. t0) /. float_of_int n
