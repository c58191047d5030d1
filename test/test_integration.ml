(* Integration tests: long random operation mixes, checked against the
   full structural-invariant suite afterwards — single-threaded under
   the sequential runtime (with every index kind and workload), and
   multi-domain under each concurrent runtime via the harness. *)

module P = Sb7_core.Parameters
module W = Sb7_harness.Workload
module B = Sb7_harness.Benchmark

(* --- Single-threaded soup under the sequential runtime --- *)

module Seq = Sb7_runtime.Seq_runtime
module I = Sb7_core.Instance.Make (Seq)
module Rand = Sb7_core.Sb_random

let soup ~index_kind ~workload ~ops_count ~seed =
  let setup = I.Setup.create ~index_kind ~seed P.tiny in
  let descs =
    I.Operation.all
    |> List.map (fun (op : I.Operation.t) ->
           {
             W.code = op.code;
             category = op.category;
             read_only = I.Operation.read_only op;
           })
    |> Array.of_list
  in
  let all = Array.of_list I.Operation.all in
  let cdf = W.cdf (W.ratios workload descs) in
  let rng = Rand.create ~seed:(seed * 31) in
  let successes = ref 0 and failures = ref 0 in
  for _ = 1 to ops_count do
    let u = float_of_int (Rand.int rng 1_000_000) /. 1_000_000. in
    let op = all.(W.sample cdf u) in
    match op.I.Operation.run rng setup with
    | (_ : int) -> incr successes
    | exception Sb7_core.Common.Operation_failed _ -> incr failures
  done;
  (setup, !successes, !failures)

let test_soup_keeps_invariants () =
  List.iter
    (fun index_kind ->
      List.iter
        (fun workload ->
          let setup, successes, _ =
            soup ~index_kind ~workload ~ops_count:3_000 ~seed:17
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s ran"
               (Sb7_core.Index_intf.kind_to_string index_kind)
               (W.kind_to_string workload))
            true (successes > 0);
          match I.Invariants.check setup with
          | [] -> ()
          | vs ->
            Alcotest.failf "%s/%s: %s"
              (Sb7_core.Index_intf.kind_to_string index_kind)
              (W.kind_to_string workload)
              (String.concat "; " vs))
        W.all_kinds)
    Sb7_core.Index_intf.all_kinds

let test_soup_deterministic () =
  let run () =
    let _, s, f =
      soup ~index_kind:Sb7_core.Index_intf.Avl ~workload:W.Read_write
        ~ops_count:2_000 ~seed:3
    in
    (s, f)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "same outcome per seed" a b

(* --- Multi-domain runs through the harness, per runtime --- *)

let run_concurrent runtime_name ~threads ~workload =
  let config =
    {
      B.default_config with
      B.threads;
      max_ops = Some 800;
      workload;
      scale = P.tiny;
      scale_name = "tiny";
      seed = 33;
      (* Long traversals at tiny scale are cheap; keep them on to cover
         every operation, but see the ASTM note below. *)
      long_traversals = runtime_name <> "astm";
    }
  in
  match Sb7_harness.Driver.run ~runtime_name config with
  | Error e -> Alcotest.fail e
  | Ok result -> result

let test_concurrent_run runtime_name () =
  let result = run_concurrent runtime_name ~threads:3 ~workload:W.Read_write in
  Alcotest.(check bool) "operations completed" true
    (Sb7_harness.Stats.total_successes result.Sb7_harness.Run_result.stats > 0);
  Alcotest.(check int) "threads recorded" 3
    result.Sb7_harness.Run_result.threads

(* For the lock runtimes and STM runtimes we additionally run the
   invariant checker on a shared setup we control directly. *)
module Check_concurrent (R : Sb7_runtime.Runtime_intf.S) = struct
  module CI = Sb7_core.Instance.Make (R)
  module CB = B.Make (R)

  let go ~threads ~workload =
    let config =
      {
        B.default_config with
        B.threads;
        max_ops = Some 600;
        workload;
        scale = P.tiny;
        scale_name = "tiny";
        seed = 51;
        long_traversals = false;
      }
    in
    let setup = CB.build_setup config in
    let result = CB.run ~setup config in
    Alcotest.(check bool)
      (R.name ^ " made progress")
      true
      (Sb7_harness.Stats.total_successes result.Sb7_harness.Run_result.stats
      > 0);
    match CI.Invariants.check setup with
    | [] -> ()
    | vs -> Alcotest.failf "%s: %s" R.name (String.concat "; " vs)
end

module Check_coarse = Check_concurrent (Sb7_runtime.Coarse_runtime)
module Check_medium = Check_concurrent (Sb7_runtime.Medium_runtime)
module Check_tl2 = Check_concurrent (Sb7_runtime.Tl2_runtime)
module Check_astm = Check_concurrent (Sb7_runtime.Astm_runtime)

let test_invariants_after_coarse () =
  Check_coarse.go ~threads:4 ~workload:W.Write_dominated

let test_invariants_after_medium () =
  Check_medium.go ~threads:4 ~workload:W.Write_dominated

let test_invariants_after_tl2 () =
  Check_tl2.go ~threads:4 ~workload:W.Write_dominated

let test_invariants_after_astm () =
  Check_astm.go ~threads:3 ~workload:W.Read_write

let test_failed_ops_recorded () =
  (* At tiny scale with 50% ID slack, random-ID operations must fail
     sometimes, and failures must be counted, not crash the harness. *)
  let result = run_concurrent "coarse" ~threads:2 ~workload:W.Write_dominated in
  Alcotest.(check bool) "failures observed" true
    (Sb7_harness.Stats.total_failures result.Sb7_harness.Run_result.stats > 0)

let test_all_registered_runtimes_run () =
  List.iter
    (fun name ->
      if name <> Sb7_runtime.Registry.single_domain then begin
        let result = run_concurrent name ~threads:2 ~workload:W.Read_dominated in
        Alcotest.(check string) "runtime name" name
          result.Sb7_harness.Run_result.runtime_name
      end)
    Sb7_runtime.Registry.names

let suite =
  [
    Alcotest.test_case "seq soup keeps invariants (3 kinds x 3 workloads)"
      `Slow test_soup_keeps_invariants;
    Alcotest.test_case "seq soup deterministic" `Quick test_soup_deterministic;
    Alcotest.test_case "coarse concurrent run" `Slow
      (test_concurrent_run "coarse");
    Alcotest.test_case "medium concurrent run" `Slow
      (test_concurrent_run "medium");
    Alcotest.test_case "tl2 concurrent run" `Slow (test_concurrent_run "tl2");
    Alcotest.test_case "astm concurrent run" `Slow
      (test_concurrent_run "astm");
    Alcotest.test_case "invariants after coarse" `Slow
      test_invariants_after_coarse;
    Alcotest.test_case "invariants after medium" `Slow
      test_invariants_after_medium;
    Alcotest.test_case "invariants after tl2" `Slow test_invariants_after_tl2;
    Alcotest.test_case "invariants after astm" `Slow
      test_invariants_after_astm;
    Alcotest.test_case "failed operations recorded" `Slow
      test_failed_ops_recorded;
    Alcotest.test_case "all runtimes run" `Slow
      test_all_registered_runtimes_run;
  ]

let () = Alcotest.run "integration" [ ("integration", suite) ]
