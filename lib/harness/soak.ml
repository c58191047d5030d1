(** Soak testing: cycle the full benchmark across strategies and
    workloads, checking the complete structural-invariant suite between
    cycles. This is the release-qualification tool for new
    synchronization strategies — a strategy that loses atomicity
    anywhere in the 45-operation surface fails here within seconds. *)

type cycle_report = {
  runtime_name : string;
  workload : Workload.kind;
  threads : int;
  successes : int;
  failures : int;
  violations : string list;
}

type report = {
  cycles : cycle_report list;
  total_operations : int;
  clean : bool;  (** no invariant violations in any cycle *)
}

module Cycle (R : Sb7_runtime.Runtime_intf.S) = struct
  module I = Sb7_core.Instance.Make (R)
  module B = Benchmark.Make (R)

  let run ~workload ~threads ~ops_per_thread ~scale ~seed : cycle_report =
    let config =
      {
        Benchmark.default_config with
        threads;
        max_ops = Some ops_per_thread;
        workload;
        scale;
        scale_name = "soak";
        seed;
        (* Long traversals under ASTM at soak scale are the quadratic
           worst case; everything else runs the full operation set. *)
        long_traversals = R.name <> "astm";
      }
    in
    let setup = B.build_setup config in
    let result = B.run ~setup config in
    {
      runtime_name = R.name;
      workload;
      threads;
      successes = Stats.total_successes result.Run_result.stats;
      failures = Stats.total_failures result.Run_result.stats;
      violations = I.Invariants.check setup;
    }
end

(** Every concurrent strategy in the registry: all but [seq]. *)
let concurrent_strategies =
  List.filter (fun name -> name <> "seq") Sb7_runtime.Registry.names

(** Run one cycle per (strategy, workload) pair; strategies defaults to
    {!concurrent_strategies}. *)
let run ?(strategies = concurrent_strategies) ?(threads = 4)
    ?(ops_per_thread = 500) ?(scale = Sb7_core.Parameters.tiny) ?(seed = 42)
    ?(progress = fun _ -> ()) () : report =
  let cycles =
    List.concat_map
      (fun runtime_name ->
        match Sb7_runtime.Registry.find runtime_name with
        | Error e -> failwith e
        | Ok runtime ->
          let module R = (val runtime : Sb7_runtime.Runtime_intf.S) in
          let module C = Cycle (R) in
          List.map
            (fun workload ->
              let cycle =
                C.run ~workload ~threads ~ops_per_thread ~scale ~seed
              in
              progress cycle;
              cycle)
            Workload.all_kinds)
      strategies
  in
  {
    cycles;
    total_operations =
      List.fold_left (fun acc c -> acc + c.successes + c.failures) 0 cycles;
    clean = List.for_all (fun c -> c.violations = []) cycles;
  }

let pp_cycle ppf c =
  Format.fprintf ppf "%-10s %-16s t=%d  ok=%-7d failed=%-7d %s" c.runtime_name
    (Workload.kind_long_name c.workload)
    c.threads c.successes c.failures
    (match c.violations with
    | [] -> "invariants OK"
    | vs -> Printf.sprintf "INVARIANTS VIOLATED (%d)" (List.length vs))
