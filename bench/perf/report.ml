(* One run's outcome: what the last line of standard output carries,
   and the fuller record [--json FILE] appends (one JSON object per
   line, with every per-repeat sample) for [perf.exe compare]. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : float list;  (** per-repeat samples behind [value] *)
}

type t = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let num_i n = Pjson.Num (float_of_int n)

let metric_json ~with_samples m =
  Pjson.Obj
    ([ ("value", Pjson.Num m.value); ("unit", Pjson.Str m.unit_) ]
    @
    if with_samples then
      [ ("samples", Pjson.Arr (List.map (fun x -> Pjson.Num x) m.samples)) ]
    else [])

let body ~with_samples r =
  [
    ("correct", Pjson.Bool r.correct);
    ("attempted", num_i r.attempted);
    ("failed", num_i r.failed);
    ( "metrics",
      Pjson.Obj
        (List.map (fun m -> (m.name, metric_json ~with_samples m)) r.metrics)
    );
  ]

(* Exactly the keys correct/attempted/failed/metrics. *)
let result_line r = Pjson.to_string (Pjson.Obj (body ~with_samples:false r))

let to_record r =
  Pjson.to_string
    (Pjson.Obj
       ([
          ("workload", Pjson.Str r.workload);
          ("seed", num_i r.seed);
          ("trace", Pjson.Bool r.traced);
        ]
       @ body ~with_samples:true r))

let of_record line =
  let open Pjson in
  let int_field k j =
    match to_num (member k j) with
    | Some x -> int_of_float x
    | None -> raise (Parse_error ("missing " ^ k))
  in
  let bool_field k j =
    match member k j with
    | Some (Bool b) -> b
    | _ -> raise (Parse_error ("missing " ^ k))
  in
  match of_string line with
  | exception Parse_error e -> Error e
  | j -> (
    try
      let metrics =
        match member "metrics" j with
        | Some (Obj l) ->
          List.map
            (fun (name, m) ->
              let samples =
                match member "samples" m with
                | Some (Arr xs) -> List.filter_map (fun x -> to_num (Some x)) xs
                | _ -> []
              in
              {
                name;
                unit_ = Option.value ~default:"" (to_str (member "unit" m));
                value =
                  (match to_num (member "value" m) with
                  | Some v -> v
                  | None -> raise (Parse_error ("no value for " ^ name)));
                samples;
              })
            l
        | _ -> raise (Parse_error "missing metrics")
      in
      Ok
        {
          workload = Option.value ~default:"" (to_str (member "workload" j));
          seed = int_field "seed" j;
          traced = bool_field "trace" j;
          correct = bool_field "correct" j;
          attempted = int_field "attempted" j;
          failed = int_field "failed" j;
          metrics;
        }
    with Parse_error e -> Error e)
