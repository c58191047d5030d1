(** Running a benchmark configuration against a runtime chosen by name
    at run time (first-class-module dispatch over {!Sb7_runtime.Registry}). *)

let run_with (runtime : Sb7_runtime.Registry.packed) (config : Benchmark.config)
    : (Run_result.t, string) result =
  let module R = (val runtime : Sb7_runtime.Runtime_intf.S) in
  (* A sanitized run takes the instrumented drop-in: same
     Runtime_intf.S, every tvar access and attempt boundary recorded
     while tracing is enabled. *)
  let module R =
    (val if config.Benchmark.sanitize then
           (module Sb7_sanitize.Sanitize.Make (R) : Sb7_runtime.Runtime_intf.S)
         else (module R : Sb7_runtime.Runtime_intf.S))
  in
  let module B = Benchmark.Make (R) in
  Result.map (fun () -> B.run config) (B.check config)

let run ~runtime_name (config : Benchmark.config) :
    (Run_result.t, string) result =
  match Sb7_runtime.Registry.find runtime_name with
  | Error _ as e -> e
  | Ok runtime -> run_with runtime config
