(* The benchmark's metric catalogue: every name, unit and direction the
   runs print, in the order BENCHMARK.json lists them. Untraced runs
   print the end-to-end set, traced runs the per-layer set; both print
   every name on every workload (a layer a workload never enters reads
   0). test_perf checks that BENCHMARK.json agrees with this file. *)

type spec = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end only *)
}

let e2e name unit_ higher bound =
  { name; unit_; higher_is_better = higher; bound = Some bound }

let layer name unit_ higher =
  { name; unit_; higher_is_better = higher; bound = None }

let end_to_end =
  [
    e2e "throughput" "op/s" true 0.25;
    e2e "latency_ms" "ms" false 0.25;
    e2e "peak_rss_mb" "MB" false 0.20;
    e2e "setup_s" "s" false 0.25;
  ]

let per_layer =
  [
    layer "pipeline.run_s" "s" false;
    layer "pipeline.window_s" "s" false;
    layer "pipeline.create_us" "us" false;
    layer "pipeline.mips" "M/s" true;
    layer "warming.run_s" "s" false;
    layer "warming.mips" "M/s" true;
    layer "block.hit_ratio" "ratio" true;
    layer "checkpoint.capture_us" "us" false;
    layer "checkpoint.restore_us" "us" false;
    layer "checkpoint.serialize_ms" "ms" false;
    layer "checkpoint.bytes" "B" false;
    layer "sampled.sweep_s" "s" false;
    layer "sampled.merge_s" "s" false;
    layer "sampled.windows" "count" false;
    layer "sampled.overlap" "ratio" true;
    layer "sampled.cpi_err_pct" "%" false;
    layer "wqueue.share_ratio" "ratio" true;
    layer "wqueue.publish_ms" "ms" false;
    layer "store.put_ms" "ms" false;
    layer "store.find_ms" "ms" false;
    layer "store.mb" "MB" false;
    layer "job.run_ms" "ms" false;
    layer "scheduler.queue_wait_ms" "ms" false;
    layer "scheduler.joins" "count" true;
    layer "scheduler.hits" "count" true;
    layer "wire.rtt_us" "us" false;
    layer "serve.cold_p50_ms" "ms" false;
    layer "serve.hit_p99_us" "us" false;
    layer "serve.restart_p50_ms" "ms" false;
    layer "cost.filter_us" "us" false;
    layer "cost.oracle_us" "us" false;
    layer "search.filter_share" "ratio" false;
    layer "search.oracle_share" "ratio" false;
    layer "pool.scaling" "ratio" true;
    layer "search.evals" "count" true;
    layer "minic.compile_s" "s" false;
    layer "trace.overhead_pct" "%" false;
    layer "trace.coverage_pct" "%" true;
  ]

(* Assemble a run's metric list in catalogue order from measured
   values; a name the workload never measured reads 0. *)
let collect specs (values : (string * float * float list) list) =
  List.map
    (fun s ->
      let value, samples =
        match List.find_opt (fun (n, _, _) -> n = s.name) values with
        | Some (_, v, samples) -> (v, samples)
        | None -> (0., [])
      in
      { Report.name = s.name; unit_ = s.unit_; value; samples })
    specs
