include Bor_exec.Wqueue

(* [?store] is ignored; only bench/perf passes it. Goes with this alias. *)
let create ?monitor ?store:_ ?inflight_cap ?finished_cap () =
  create ?monitor ?inflight_cap ?finished_cap ()
