(* The contract between a sampled run, which plans detailed windows,
   and whatever executes them: {!Sampled.run_on} hands an [exec_ctx]
   to a [runner] factory and pushes checkpoints through the runner it
   gets back. {!Sampled} re-exports all three types; {!Wqueue} is the
   off-thread implementation. *)

type window_entry = {
  e_result : (Bor_uarch.Pipeline.window_result, string) result;
  e_tel : Bor_telemetry.Telemetry.export option;
      (** the window's telemetry delta, shipped home by whichever
          thread/domain executed it; [None] when the window ran
          inline on the job's own registry *)
}
(** One delivered window result: what [xc_deliver] accepts. *)

type exec_ctx = {
  xc_window :
    Checkpoint.t -> (Bor_uarch.Pipeline.window_result, string) result;
      (** the detailed window as a {e pure function} of its
          checkpoint: safe to execute on any thread or domain, any
          number of times, with identical results *)
  xc_deliver : int -> window_entry -> unit;
      (** deliver window [index]'s entry; thread-safe; must be called
          exactly once per dispatched index before [r_drain] returns *)
  xc_digest : string;
      (** the program image's SHA-256 — with the config and plan, the
          shard-key component of a window's content address *)
  xc_plan : Bor_uarch.Sampling_plan.t;  (** the resolved sampling plan *)
  xc_max_cycles : int;  (** per-window cycle budget *)
  xc_telemetry : bool;
      (** whether the job records telemetry; an external runner must
          key shared work units on this, since a shared entry's
          [e_tel] is absorbed verbatim by every job that receives it *)
  xc_stopped : unit -> bool;
      (** the job's advisory stop flag: true once the online stopping
          rule fired. Already-dispatched windows must still be
          delivered (overrun is discarded at merge, so execution order
          cannot change the payload), but a scheduler may deprioritize
          them in favor of live jobs *)
}
(** Everything a runner needs to execute a run's windows as
    first-class work units. *)

type runner = {
  r_dispatch : index:int -> boundary:int -> Checkpoint.t -> unit;
      (** execute window [index] (dense dispatch order — the merge
          key) whose checkpoint was captured at schedule [boundary]
          (the period index; under ranked selection the dispatched
          subset is sparse in boundaries but dense in indices).
          [(program digest, config, plan, boundary)] identifies the
          checkpoint content-addressably; [(that, max_cycles,
          telemetry)] identifies the work unit. May execute inline,
          enqueue, or deduplicate against an identical unit from
          another job — as long as every index is eventually
          delivered. *)
  r_drain : unit -> unit;
      (** block until every dispatched window has been delivered;
          called once, after the sweep (also when the sweep failed) *)
}
(** How a sampled run executes its detailed windows. *)
