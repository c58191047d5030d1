(* Helpers shared by the three sanitizer test executables:
   test_sanitize (hand-built event streams), test_sanitize_replay (every
   runtime's sanitized run) and test_sanitize_seeded (the fixture
   table). *)

module Checker = Sb7_sanitize.Checker
module B = Sb7_harness.Benchmark

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let check_clean what v =
  if not (Checker.clean v) then
    Alcotest.failf "%s is not clean:\n%s" what (Checker.summary v)

(* The sanitized end-to-end run: two domains, 0.3 s of the
   write-dominated mix at tiny scale. *)
let run_config =
  {
    B.default_config with
    B.threads = 2;
    duration_s = 0.3;
    workload = Sb7_harness.Workload.Write_dominated;
    scale = Sb7_core.Parameters.tiny;
    scale_name = "tiny";
    sanitize = true;
  }
