type port = I | D

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l1_latency : int;
  l2_latency : int;
  mem_latency : int;
}

let create ?reuse (c : Config.t) =
  let old f = Option.map f reuse in
  {
    l1i =
      Cache.create ?reuse:(old (fun h -> h.l1i)) ~name:"l1i" ~size:c.l1_size
        ~assoc:c.l1_assoc ~line_bytes:c.line_bytes ();
    l1d =
      Cache.create ?reuse:(old (fun h -> h.l1d)) ~name:"l1d" ~size:c.l1_size
        ~assoc:c.l1_assoc ~line_bytes:c.line_bytes ();
    l2 =
      Cache.create ?reuse:(old (fun h -> h.l2)) ~name:"l2" ~size:c.l2_size
        ~assoc:c.l2_assoc ~line_bytes:c.line_bytes ();
    l1_latency = c.l1_latency;
    l2_latency = c.l2_latency;
    mem_latency = c.mem_latency;
  }

let access t port addr =
  let l1 = match port with I -> t.l1i | D -> t.l1d in
  if Cache.access l1 addr then t.l1_latency
  else if Cache.access t.l2 addr then t.l2_latency
  else t.mem_latency

(* Hot-path variant for the front end: a single pass that returns -1 on
   an L1 hit and the miss latency otherwise, replacing the old
   probe-then-access double tag walk. State evolution (LRU, fills,
   statistics, telemetry) is identical to [access]. *)
let access_miss t port addr =
  let l1 = match port with I -> t.l1i | D -> t.l1d in
  if Cache.access l1 addr then -1
  else if Cache.access t.l2 addr then t.l2_latency
  else t.mem_latency

let l1i t = t.l1i
let l1d t = t.l1d
let l2 t = t.l2

let reset_stats t =
  Cache.reset_stats t.l1i;
  Cache.reset_stats t.l1d;
  Cache.reset_stats t.l2

(* Cross-level sanitizer pass. The L2 traffic identity holds because
   every L1 miss (either port) forwards to L2 exactly once and nothing
   else reaches L2, and because [reset_stats] clears all three levels
   together. *)
let check ?cycle t =
  let module Check = Bor_check.Check in
  Cache.check ?cycle t.l1i;
  Cache.check ?cycle t.l1d;
  Cache.check ?cycle t.l2;
  let l1i = Cache.stats t.l1i
  and l1d = Cache.stats t.l1d
  and l2 = Cache.stats t.l2 in
  if l2.accesses <> l1i.misses + l1d.misses then
    Check.fail ?cycle ~component:"hierarchy" ~invariant:"l2-traffic"
      "l2.accesses=%d but l1i.misses + l1d.misses = %d + %d = %d" l2.accesses
      l1i.misses l1d.misses (l1i.misses + l1d.misses);
  Check.count 1

let regions =
  List.concat_map
    (fun (name, level) -> Region.lift ~prefix:name level Cache.regions)
    [ ("l1i", fun t -> t.l1i); ("l1d", fun t -> t.l1d); ("l2", fun t -> t.l2) ]

let state_digests t =
  [
    ("l1i", Cache.state_digest t.l1i);
    ("l1d", Cache.state_digest t.l1d);
    ("l2", Cache.state_digest t.l2);
  ]
