module Json = Bor_telemetry.Json
module Telemetry = Bor_telemetry.Telemetry
module Sha256 = Bor_telemetry.Sha256
module Backend = Bor_exec.Backend
module Pipeline = Bor_uarch.Pipeline
module Sampled = Bor_exec.Sampled
module Sampling_plan = Bor_uarch.Sampling_plan

type spec = {
  sp_program : Bor_isa.Program.t;
  sp_backend : string;
  sp_config : Bor_uarch.Config.t;
  sp_plan : Sampling_plan.t option;
}

let make ?(config = Bor_uarch.Config.default) ?plan ?rank_bands ?ci_target
    ~backend program =
  let ok = function Ok v -> v | Error e -> invalid_arg ("Job.make: " ^ e) in
  let sp_plan =
    match (plan, rank_bands, ci_target) with
    | None, None, None -> None
    | None, _, _ -> invalid_arg "Job.make: rank_bands/ci_target need a ?plan"
    | Some p, _, _ ->
      Some (ok (Sampling_plan.with_selection ?rank_bands ?ci_target p))
  in
  ignore (ok (Backend.Kind.of_name backend sp_plan));
  { sp_program = program; sp_backend = backend; sp_config = config; sp_plan }

let key spec =
  Bor_store.Key.make ~program:spec.sp_program ~config:spec.sp_config
    ?plan:spec.sp_plan ~kind:spec.sp_backend ()

(* Fixed-precision strings keep float formatting out of the digested
   bytes, same policy as the bench harness's JSON files. *)
let flt v = Json.String (Printf.sprintf "%.6f" v)

(* Both record destructurings are complete on purpose: a new stats
   field fails to compile here until the payload schema accounts for
   it, mirroring Key.canon_config. *)
let render_report = function
  | Backend.Functional { instructions } ->
      Json.Obj
        [ ("kind", Json.String "functional"); ("instructions", Json.Int instructions) ]
  | Backend.Warmed { instructions } ->
      Json.Obj
        [ ("kind", Json.String "warmed"); ("instructions", Json.Int instructions) ]
  | Backend.Detailed st ->
      let {
        Pipeline.cycles;
        instructions;
        cond_branches;
        cond_mispredicts;
        returns;
        return_mispredicts;
        brr_executed;
        brr_taken;
        backend_flushes;
        frontend_flushes;
        predecode_redirects;
        squashed;
        loads;
        stores;
        cycles_fetch_full;
        cycles_decode_starved;
        cycles_rob_full;
        rob_occupancy;
        l1i_misses;
        l1d_misses;
        l2_misses;
        (* the per-stage slot counts are in the telemetry registry *)
        fetch_slots = _;
        fetch_icache_stalls = _;
        decode_slots = _;
        issue_slots = _;
        commit_slots = _;
      } =
        st
      in
      Json.Obj
        [
          ("kind", Json.String "detailed");
          ("cycles", Json.Int cycles);
          ("instructions", Json.Int instructions);
          ("cond_branches", Json.Int cond_branches);
          ("cond_mispredicts", Json.Int cond_mispredicts);
          ("returns", Json.Int returns);
          ("return_mispredicts", Json.Int return_mispredicts);
          ("brr_executed", Json.Int brr_executed);
          ("brr_taken", Json.Int brr_taken);
          ("backend_flushes", Json.Int backend_flushes);
          ("frontend_flushes", Json.Int frontend_flushes);
          ("predecode_redirects", Json.Int predecode_redirects);
          ("squashed", Json.Int squashed);
          ("loads", Json.Int loads);
          ("stores", Json.Int stores);
          ("cycles_fetch_full", Json.Int cycles_fetch_full);
          ("cycles_decode_starved", Json.Int cycles_decode_starved);
          ("cycles_rob_full", Json.Int cycles_rob_full);
          ("rob_occupancy", Json.Int rob_occupancy);
          ("l1i_misses", Json.Int l1i_misses);
          ("l1d_misses", Json.Int l1d_misses);
          ("l2_misses", Json.Int l2_misses);
        ]
  | Backend.Sampled sp ->
      let {
        Sampled.sp_windows;
        sp_instructions;
        sp_warmed;
        sp_detailed;
        sp_detailed_cycles;
        sp_cpi;
        sp_cpi_ci95;
        sp_cycles_estimate;
        sp_stopped;
      } =
        sp
      in
      Json.Obj
        [
          ("kind", Json.String "sampled");
          ("windows", Json.Int sp_windows);
          ("instructions", Json.Int sp_instructions);
          ("warmed", Json.Int sp_warmed);
          ("detailed", Json.Int sp_detailed);
          ("detailed_cycles", Json.Int sp_detailed_cycles);
          ("cpi", flt sp_cpi);
          ("cpi_ci95", flt sp_cpi_ci95);
          ("cycles_estimate", flt sp_cycles_estimate);
          ("stopped", Json.Bool sp_stopped);
        ]

let run ?store ?runner spec =
  let k = key spec in
  (* A plan-less job reports the default knobs. *)
  let rank_bands, ci_target =
    Option.fold spec.sp_plan ~none:(1, 0.) ~some:(fun p ->
        (p.Sampling_plan.rank_bands, p.Sampling_plan.ci_target))
  in
  let was_enabled = Telemetry.is_enabled () in
  let render report =
    let telemetry = Telemetry.to_json () in
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.String "bor-serve-result-v1");
           ("key", Json.String (Bor_store.Key.hex k));
           ("backend", Json.String spec.sp_backend);
           ( "plan",
             match spec.sp_plan with
             | None -> Json.Null
             | Some p -> Json.String (Sampling_plan.to_string p) );
           ("rank_bands", Json.Int rank_bands);
           ("ci_target", flt ci_target);
           ("report", render_report report);
           ("telemetry", telemetry);
           ("telemetry_digest", Json.String (Sha256.digest (Json.to_string telemetry)));
         ])
  in
  let create () =
    Backend.Kind.of_name spec.sp_backend spec.sp_plan
    |> Result.map (fun kind ->
           Backend.create ~config:spec.sp_config ?runner kind spec.sp_program)
  in
  (* Telemetry on before [create]: instruments register at
     component-creation time. *)
  Telemetry.clear ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.clear ();
      Telemetry.set_enabled was_enabled)
    (fun () -> Backend.run_cached ?store ~key:k ~render create)
