(* The kernel set the simulation workloads run: alu-loop, the paper's
   Section 5.3 microbenchmark over a seeded text corpus, and the eight
   app kernels, all built with brr 1/64 and no duplication, as the
   bench [perf] and [sampled] experiments build them. *)

type t = {
  name : string;
  prog : Bor_isa.Program.t;
  checksum : (int * int) option;
      (** micro only: address of [checksum] and the interpreter's value *)
}

let brr64 =
  Bor_minic.Instrument.(Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))

let alu_loop_src =
  "int main() { int i; int s = 0; for (i = 0; i < 1000000; i = i + 1) s = \
   s + i; return s; }"

let micro_chars ~quick = if quick then 20_000 else 200_000

(* The quick set, for the smoke alias, is micro at a tenth of its size
   and two small apps; the full set is the bench [perf] table's. *)
let app_names ~quick =
  if quick then [ "jython"; "antlr" ] else Bor_workload.Apps.all_names

let compile c ~quick ~seed =
  let minic name f =
    {
      name;
      prog = Trace.span c.Ctx.tr ~req:name "minic.compile" (fun _ -> f ());
      checksum = None;
    }
  in
  let chars = micro_chars ~quick in
  (if quick then []
   else
     [
       minic "alu-loop" (fun () ->
           (Bor_minic.Driver.compile_exn alu_loop_src).program);
     ])
  @ minic (Printf.sprintf "micro-%d" chars) (fun () ->
        (Bor_workload.Micro.compile ~chars ~seed brr64).program)
    :: List.map
         (fun n ->
           minic n (fun () -> (Bor_workload.Apps.compile n brr64).program))
         (app_names ~quick)

(* The interpreter's checksum for micro, computed outside any timing. *)
let with_checksums ~quick ~seed ks =
  List.map
    (fun k ->
      if String.starts_with ~prefix:"micro-" k.name then
        let addr =
          match Bor_isa.Program.find_symbol k.prog "checksum" with
          | Some a -> a
          | None -> failwith "micro: no checksum symbol"
        in
        let chars = micro_chars ~quick in
        {
          k with
          checksum =
            Some (addr, Bor_workload.Micro.reference_checksum ~chars ~seed ());
        }
      else k)
    ks

(* Architectural checks every simulated run of a kernel passes: the
   whole-run cycles, instructions and a0 (against the reference row or
   the run's first sample) and, for micro, the checksum in memory. *)
let check_final c ~kind k machine fields =
  let micro =
    match k.checksum with
    | None -> []
    | Some (addr, expected) ->
      Ctx.expect ~what:(k.name ^ " checksum") (string_of_int expected)
        (string_of_int
           (Bor_sim.Memory.read_word (Bor_sim.Machine.memory machine) addr))
  in
  let a0 = Bor_sim.Machine.reg machine (Bor_isa.Reg.a 0) in
  micro
  @ Ctx.check_fields c ~kind ~name:k.name (fields @ [ ("a0", string_of_int a0) ])
