(* Tests for the harness pieces: stats recording and merging, run
   results, report rendering, and the driver dispatch. *)

module Stats = Sb7_harness.Stats
module W = Sb7_harness.Workload
module B = Sb7_harness.Benchmark
module RR = Sb7_harness.Run_result
module P = Sb7_core.Parameters

(* --- Stats --- *)

let test_record_success () =
  let s = Stats.create ~ops:2 ~histograms:false in
  Stats.record s ~op:0 ~latency_s:0.010 ~ok:true;
  Stats.record s ~op:0 ~latency_s:0.005 ~ok:true;
  Stats.record s ~op:0 ~latency_s:0.001 ~ok:false;
  let st = s.Stats.per_op.(0) in
  Alcotest.(check int) "successes" 2 st.Stats.successes;
  Alcotest.(check int) "failures" 1 st.Stats.failures;
  Alcotest.(check int) "attempts" 3 (Stats.attempts st);
  Alcotest.(check (float 0.001)) "max" 10. st.Stats.max_latency_ms;
  Alcotest.(check (float 0.001)) "total" 15. st.Stats.total_latency_ms

let test_failures_do_not_affect_latency () =
  let s = Stats.create ~ops:1 ~histograms:false in
  Stats.record s ~op:0 ~latency_s:99. ~ok:false;
  Alcotest.(check (float 0.001)) "no latency recorded" 0.
    s.Stats.per_op.(0).Stats.max_latency_ms

let test_histograms () =
  let s = Stats.create ~ops:1 ~histograms:true in
  Stats.record s ~op:0 ~latency_s:0.0005 ~ok:true;
  Stats.record s ~op:0 ~latency_s:0.0015 ~ok:true;
  Stats.record s ~op:0 ~latency_s:1000. ~ok:true;
  let h = s.Stats.per_op.(0).Stats.histogram in
  Alcotest.(check int) "bucket 0" 1 h.(0);
  Alcotest.(check int) "bucket 1" 1 h.(1);
  Alcotest.(check int) "overflow clamps to last bucket" 1
    h.(Stats.histogram_buckets - 1)

let test_merge () =
  let a = Stats.create ~ops:2 ~histograms:true in
  let b = Stats.create ~ops:2 ~histograms:true in
  Stats.record a ~op:0 ~latency_s:0.002 ~ok:true;
  Stats.record b ~op:0 ~latency_s:0.007 ~ok:true;
  Stats.record b ~op:1 ~latency_s:0.001 ~ok:false;
  let m = Stats.merge ~ops:2 ~histograms:true [ a; b ] in
  Alcotest.(check int) "successes summed" 2 m.Stats.per_op.(0).Stats.successes;
  Alcotest.(check (float 0.001)) "max is max" 7.
    m.Stats.per_op.(0).Stats.max_latency_ms;
  Alcotest.(check int) "failures" 1 m.Stats.per_op.(1).Stats.failures;
  Alcotest.(check int) "histogram merged" 1 m.Stats.per_op.(0).Stats.histogram.(2);
  Alcotest.(check int) "totals" 3 (Stats.total_attempts m);
  Alcotest.(check int) "total successes" 2 (Stats.total_successes m);
  Alcotest.(check int) "total failures" 1 (Stats.total_failures m)

(* --- A small harness run used by the remaining tests --- *)

let tiny_config =
  {
    B.default_config with
    B.threads = 2;
    max_ops = Some 400;
    workload = W.Read_write;
    scale = P.tiny;
    scale_name = "tiny";
    seed = 9;
    histograms = true;
  }

let result =
  lazy
    (match Sb7_harness.Driver.run ~runtime_name:"coarse" tiny_config with
    | Ok r -> r
    | Error e -> failwith e)

let test_run_result_accessors () =
  let r = Lazy.force result in
  Alcotest.(check bool) "throughput positive" true (RR.throughput r > 0.);
  Alcotest.(check bool) "attempts >= successes" true
    (RR.attempts_throughput r >= RR.throughput r);
  Alcotest.(check bool) "op index found" true (RR.op_index r "T1" <> None);
  Alcotest.(check (option int)) "unknown op" None (RR.op_index r "NOPE");
  Alcotest.(check (float 0.001)) "unknown op latency" 0.
    (RR.max_latency_ms r ~code:"NOPE");
  Alcotest.(check bool) "T1 included when traversals on" true
    (Array.exists
       (fun (o : W.op_desc) -> o.code = "T1")
       r.RR.ops)

let test_per_domain_successes () =
  let r = Lazy.force result in
  Alcotest.(check int) "one entry per worker domain" r.RR.threads
    (Array.length r.RR.per_domain_successes);
  Alcotest.(check int) "per-domain successes partition the total"
    (Stats.total_successes r.RR.stats)
    (Array.fold_left ( + ) 0 r.RR.per_domain_successes);
  (* max/mean is >= 1 by construction, and with every domain on the
     same 400-op budget it cannot exceed the domain count. *)
  let imb = RR.commit_imbalance r in
  Alcotest.(check bool)
    (Printf.sprintf "imbalance %.2f within [1, threads]" imb)
    true
    (imb >= 1.0 && imb <= float_of_int r.RR.threads)

(* Worker domains are uniform (paper §4): each draws from the one
   Table-2 distribution, so the attempted mix of a multi-domain run
   stays on the expected ratios. Sum_i |A_i - C_i| over 2 x 5,000
   operations is not exactly reproducible, since each operation's own
   draws from the worker's rng depend on the structure; 0.08 leaves
   room above the 0.034-0.063 that 30 seeds measured. *)
let test_every_domain_samples_the_whole_mix () =
  List.iter
    (fun workload ->
      let config = { tiny_config with B.max_ops = Some 5_000; workload } in
      match Sb7_harness.Driver.run ~runtime_name:"tl2" config with
      | Error e -> Alcotest.fail e
      | Ok r ->
        let total = float_of_int (Stats.total_attempts r.RR.stats) in
        let drift = ref 0. in
        Array.iteri
          (fun i c ->
            let a = float_of_int (Stats.attempts r.RR.stats.Stats.per_op.(i)) in
            drift := !drift +. Float.abs ((a /. total) -. c))
          r.RR.expected;
        Alcotest.(check bool)
          (Printf.sprintf "%s: sum |A - C| = %.3f <= 0.08"
             (W.kind_to_string workload) !drift)
          true (!drift <= 0.08))
    [ W.Read_dominated; W.Read_write; W.Write_dominated ]

let test_single_domain_imbalance_is_one () =
  let config = { tiny_config with B.threads = 1; max_ops = Some 50 } in
  match Sb7_harness.Driver.run ~runtime_name:"seq" config with
  | Error e -> failwith e
  | Ok r ->
    Alcotest.(check (float 1e-9)) "1 domain -> imbalance 1.0" 1.0
      (RR.commit_imbalance r)

let test_category_totals_sum () =
  let r = Lazy.force result in
  let total =
    List.fold_left
      (fun acc cat ->
        let s, f, _ = RR.category_totals r cat in
        acc + s + f)
      0 Sb7_core.Category.all
  in
  Alcotest.(check int) "categories partition attempts"
    (Stats.total_attempts r.RR.stats)
    total

let test_expected_ratios_form_distribution () =
  let r = Lazy.force result in
  let sum = Array.fold_left ( +. ) 0. r.RR.expected in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 sum

let test_report_renders () =
  let r = Lazy.force result in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Sb7_harness.Report.print ppf r;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains haystack needle =
    let n = String.length haystack and m = String.length needle in
    let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report contains " ^ needle) true
        (contains out needle))
    [
      "Benchmark parameters";
      "Detailed results";
      "Sample errors";
      "Summary results";
      "Total throughput";
      "TTC histogram";
      "coarse";
    ]

let test_driver_unknown_runtime () =
  match Sb7_harness.Driver.run ~runtime_name:"nope" tiny_config with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown runtime"

let test_disabling_categories () =
  let config =
    {
      tiny_config with
      B.long_traversals = false;
      structure_mods = false;
      max_ops = Some 100;
    }
  in
  match Sb7_harness.Driver.run ~runtime_name:"seq" { config with B.threads = 1 } with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "no long traversals" false
      (Array.exists
         (fun (o : W.op_desc) ->
           Sb7_core.Category.equal o.category Sb7_core.Category.Long_traversal)
         r.RR.ops);
    Alcotest.(check bool) "no SMs" false
      (Array.exists
         (fun (o : W.op_desc) ->
           Sb7_core.Category.equal o.category
             Sb7_core.Category.Structure_modification)
         r.RR.ops);
    Alcotest.(check int) "45 - 12 - 8 ops remain" 25 (Array.length r.RR.ops)

let test_reduced_set_config () =
  let config =
    {
      tiny_config with
      B.long_traversals = false;
      reduced_ops = true;
      max_ops = Some 50;
      threads = 1;
    }
  in
  match Sb7_harness.Driver.run ~runtime_name:"seq" config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "OP11 excluded" false
      (Array.exists (fun (o : W.op_desc) -> o.code = "OP11") r.RR.ops);
    Alcotest.(check bool) "ST1 kept" true
      (Array.exists (fun (o : W.op_desc) -> o.code = "ST1") r.RR.ops)

let test_max_ops_budget () =
  let config = { tiny_config with B.threads = 3; max_ops = Some 200 } in
  match Sb7_harness.Driver.run ~runtime_name:"seq" config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "exactly threads * budget attempts" 600
      (Stats.total_attempts r.RR.stats)

let test_only_op () =
  let config =
    { tiny_config with B.threads = 1; max_ops = Some 50; only_op = Some "OP4" }
  in
  match Sb7_harness.Driver.run ~runtime_name:"seq" config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "single operation" 1 (Array.length r.RR.ops);
    Alcotest.(check string) "the requested one" "OP4" r.RR.ops.(0).W.code;
    Alcotest.(check int) "all 50 ran" 50 (Stats.total_attempts r.RR.stats)

let test_only_op_unknown () =
  let config = { tiny_config with B.only_op = Some "NOPE"; threads = 1 } in
  match Sb7_harness.Driver.run ~runtime_name:"seq" config with
  | exception Invalid_argument _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown operation"
  | Error _ -> Alcotest.fail "wrong error path"

let test_warmup_runs_and_is_excluded () =
  let config =
    {
      tiny_config with
      B.threads = 2;
      max_ops = None;
      duration_s = 0.15;
      warmup_s = 0.15;
    }
  in
  match Sb7_harness.Driver.run ~runtime_name:"coarse" config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "measured window produced work" true
      (Stats.total_successes r.RR.stats > 0);
    (* The elapsed time covers only the measured window, not warmup. *)
    Alcotest.(check bool) "elapsed excludes warmup" true (r.RR.elapsed_s < 0.3)

let test_soak_smoke () =
  let report =
    Sb7_harness.Soak.run ~strategies:[ "coarse"; "tl2" ] ~threads:2
      ~ops_per_thread:100 ()
  in
  Alcotest.(check bool) "clean" true report.Sb7_harness.Soak.clean;
  Alcotest.(check int) "6 cycles" 6
    (List.length report.Sb7_harness.Soak.cycles);
  Alcotest.(check int) "operation accounting" 1200
    report.Sb7_harness.Soak.total_operations

let test_single_thread_deterministic () =
  let config = { tiny_config with B.threads = 1; max_ops = Some 300 } in
  let run () =
    match Sb7_harness.Driver.run ~runtime_name:"seq" config with
    | Ok r ->
      (Stats.total_successes r.RR.stats, Stats.total_failures r.RR.stats)
    | Error e -> failwith e
  in
  Alcotest.(check (pair int int)) "same counts per seed" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "stats record" `Quick test_record_success;
    Alcotest.test_case "failures skip latency" `Quick
      test_failures_do_not_affect_latency;
    Alcotest.test_case "histograms" `Quick test_histograms;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "run_result accessors" `Slow test_run_result_accessors;
    Alcotest.test_case "per-domain successes partition" `Slow
      test_per_domain_successes;
    Alcotest.test_case "every domain samples the whole mix" `Slow
      test_every_domain_samples_the_whole_mix;
    Alcotest.test_case "single-domain imbalance is 1" `Slow
      test_single_domain_imbalance_is_one;
    Alcotest.test_case "category totals partition" `Slow
      test_category_totals_sum;
    Alcotest.test_case "expected ratios distribution" `Slow
      test_expected_ratios_form_distribution;
    Alcotest.test_case "report renders all sections" `Slow test_report_renders;
    Alcotest.test_case "unknown runtime" `Quick test_driver_unknown_runtime;
    Alcotest.test_case "disabling categories" `Slow test_disabling_categories;
    Alcotest.test_case "reduced set" `Slow test_reduced_set_config;
    Alcotest.test_case "max_ops budget" `Slow test_max_ops_budget;
    Alcotest.test_case "only_op isolation" `Slow test_only_op;
    Alcotest.test_case "only_op unknown" `Quick test_only_op_unknown;
    Alcotest.test_case "soak smoke" `Slow test_soak_smoke;
    Alcotest.test_case "warmup excluded from measurement" `Slow
      test_warmup_runs_and_is_excluded;
    Alcotest.test_case "single-thread determinism" `Slow
      test_single_thread_deterministic;
  ]

let () = Alcotest.run "harness" [ ("harness", suite) ]
