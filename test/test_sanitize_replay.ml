(* End to end: every registered runtime's sanitized run comes back
   clean with its footprint replayed, and a planted footprint escape
   flags the run. *)

open Sanitize_helpers
module Trace = Sb7_sanitize.Trace

let sanitized_run ?(config = run_config) runtime_name =
  match Sb7_harness.Driver.run ~runtime_name config with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    match r.Sb7_harness.Run_result.sanitizer with
    | None -> Alcotest.fail "sanitized run produced no verdict"
    | Some v -> v)

(* Property: for every registered runtime, a sanitized quick workload
   at two domains records attempts, comes back clean, and its verdict's
   footprint replay checked accesses with zero contradictions and no
   unknowns — the dynamic trace validates the whole-program inference
   (docs/FOOTPRINT.md). *)
let test_footprint_replay_all_runtimes () =
  List.iter
    (fun (name, _) ->
      let config =
        if String.equal name Sb7_runtime.Registry.single_domain then
          { run_config with B.threads = 1 }
        else run_config
      in
      let verdict = sanitized_run ~config name in
      let fp = verdict.Checker.footprint in
      Alcotest.(check bool)
        (name ^ ": attempts recorded")
        true
        (verdict.Checker.attempts > 0);
      check_clean ("honest " ^ name) verdict;
      Alcotest.(check bool)
        (name ^ ": accesses were checked")
        true (fp.Checker.checked > 0);
      Alcotest.(check int) (name ^ ": no unknown regions") 0
        fp.Checker.unknown_region;
      Alcotest.(check int) (name ^ ": no unknown ops") 0 fp.Checker.unknown_op)
    Sb7_runtime.Registry.all;
  Trace.reset ()

(* A sanitized run whose trace escapes the footprint table is not
   clean, and every rendering of its verdict says so. OP2 alone, with
   the injected read of the manual armed, escapes on every execution. *)
let test_escape_flags_the_run () =
  let config =
    { run_config with B.threads = 1; max_ops = Some 20; only_op = Some "OP2" }
  in
  B.Unsafe.read_escape ();
  let r =
    Fun.protect ~finally:B.Unsafe.reset (fun () ->
        match Sb7_harness.Driver.run ~runtime_name:"tl2" config with
        | Ok r -> r
        | Error e -> Alcotest.fail e)
  in
  let v = Option.get r.Sb7_harness.Run_result.sanitizer in
  Alcotest.(check bool) "not clean" false (Checker.clean v);
  Alcotest.(check bool) "a may-read escape" true
    (v.Checker.footprint.Checker.read_escapes <> []);
  let shows what text =
    Alcotest.(check bool)
      (what ^ " shows the escape")
      true
      (contains text "footprint escape: operation OP2 read")
  in
  shows "summary" (Checker.summary v);
  shows "report" (Format.asprintf "%a" Sb7_harness.Report.print r);
  Alcotest.(check string)
    "csv cell" "flagged;opacity=0;races=0;order=0;structural=0;footprint=1"
    (Checker.csv_cell v);
  Trace.reset ()

let () =
  Alcotest.run "sanitize_replay"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "footprint replay: all runtimes" `Quick
            test_footprint_replay_all_runtimes;
          Alcotest.test_case "a footprint escape flags the run" `Quick
            test_escape_flags_the_run;
        ] );
    ]
