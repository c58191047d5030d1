(** Running a benchmark configuration against a runtime chosen by name
    at run time (first-class-module dispatch over
    {!Sb7_runtime.Registry}). *)

(** [run_with runtime config] runs, or returns the [Error] of
    [Benchmark.Make]'s [check] before any domain starts. *)
val run_with :
  Sb7_runtime.Registry.packed -> Benchmark.config -> (Run_result.t, string) result

(** [run ~runtime_name config] resolves the strategy name and runs it
    with {!run_with}; [Error] on an unknown name too. *)
val run : runtime_name:string -> Benchmark.config -> (Run_result.t, string) result
