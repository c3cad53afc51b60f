type site_state = {
  mutable freq : Bor_core.Freq.t;
  mutable samples_at_rate : int;
  mutable estimate : float; (* Horvitz-Thompson visit-count estimate *)
}

type t = {
  engine : Bor_core.Engine.t;
  initial : Bor_core.Freq.t;
  floor : Bor_core.Freq.t;
  target : int;
  table : (int, site_state) Hashtbl.t;
  profile : Profile.t;
  mutable visits : int;
  mutable samples : int;
}

let create ?engine ?(initial = Bor_core.Freq.of_field 0)
    ?(floor = Bor_core.Freq.of_field 11) ?(target_samples = 64) () =
  if target_samples <= 0 then invalid_arg "Per_site.create: target_samples";
  if Bor_core.Freq.compare initial floor > 0 then
    invalid_arg "Per_site.create: initial must be at least as fast as floor";
  let engine =
    match engine with Some e -> e | None -> Bor_core.Engine.create ()
  in
  {
    engine;
    initial;
    floor;
    target = target_samples;
    table = Hashtbl.create 64;
    profile = Profile.create ();
    visits = 0;
    samples = 0;
  }

let state t site =
  match Hashtbl.find_opt t.table site with
  | Some s -> s
  | None ->
    let s = { freq = t.initial; samples_at_rate = 0; estimate = 0. } in
    Hashtbl.add t.table site s;
    s

let anneal t (s : site_state) =
  if s.samples_at_rate >= t.target then begin
    let field = Bor_core.Freq.to_field s.freq + 1 in
    let capped = min field (Bor_core.Freq.to_field t.floor) in
    s.freq <- Bor_core.Freq.of_field capped;
    s.samples_at_rate <- 0
  end

let visit t site =
  t.visits <- t.visits + 1;
  let s = state t site in
  let take = Bor_core.Engine.decide t.engine s.freq in
  if take then begin
    Profile.record t.profile site;
    t.samples <- t.samples + 1;
    s.samples_at_rate <- s.samples_at_rate + 1;
    s.estimate <- s.estimate +. Float.of_int (Bor_core.Freq.period s.freq);
    anneal t s
  end;
  take

let frequency t site = (state t site).freq
let profile t = t.profile

let estimated_counts t =
  Hashtbl.fold (fun site s acc -> (site, s.estimate) :: acc) t.table []
  |> List.sort compare

let samples t = t.samples
