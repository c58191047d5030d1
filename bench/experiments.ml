(* One function per table / figure of the paper's evaluation, plus the
   ablations this reproduction adds. Each prints the same rows/series
   the paper plots; EXPERIMENTS.md records the paper-vs-measured
   comparison. *)

open Bench_common
module W = Sb7_harness.Workload
module RR = Sb7_harness.Run_result
module D = Sb7_harness.Dispatch
module Category = Sb7_core.Category

(* --- Table 2: default ratios for operation categories --- *)

let table2 (_ : settings) =
  print_header
    "Table 2 — default ratios for operation categories (% of operations)";
  Printf.printf "%-26s %14s %14s %14s\n" "category" "read-dom." "read-write"
    "write-dom.";
  (* The category rows of Table 2 are workload-independent inputs; the
     effective per-category shares below combine them with the
     read-only/update split exactly as the harness does. *)
  let module I = Sb7_core.Instance.Make (Sb7_runtime.Seq_runtime) in
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
  let category_share kind cat =
    let r = W.ratios kind descs in
    let total = ref 0. in
    Array.iteri
      (fun i (d : W.op_desc) ->
        if Category.equal d.category cat then total := !total +. r.(i))
      descs;
    100. *. !total
  in
  List.iter
    (fun cat ->
      Printf.printf "%-26s %13.1f%% %13.1f%% %13.1f%%\n"
        (Category.to_string cat)
        (category_share W.Read_dominated cat)
        (category_share W.Read_write cat)
        (category_share W.Write_dominated cat))
    Category.all;
  Printf.printf "\nread-only / update split:  r = 90/10   rw = 60/40   w = \
                 10/90 (Table 2)\n";
  Printf.printf "input category ratios:     LT = 5  ST = 40  OP = 45  SM = \
                 10 (Table 2)\n"

(* --- Figure 3: max latency of long traversals, coarse vs medium --- *)

let fig3 (s : settings) =
  print_header
    "Figure 3 — max latency [ms] of T1 (read-dom.) / T2b (write-dom.), all \
     operations enabled";
  note "series: <workload>/<op> under coarse vs medium locking";
  let series =
    [
      ("R/T1 coarse", "coarse", W.Read_dominated, "T1");
      ("R/T1 medium", "medium", W.Read_dominated, "T1");
      ("W/T2b coarse", "coarse", W.Write_dominated, "T2b");
      ("W/T2b medium", "medium", W.Write_dominated, "T2b");
    ]
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun threads ->
      List.iter
        (fun (label, runtime, workload, _) ->
          let r = run_point s (point ~runtime ~workload ~threads ()) in
          Hashtbl.replace results (threads, label) r)
        series)
    s.threads;
  print_series ~row_label:"threads" ~rows:s.threads
    ~series:(List.map (fun (l, _, _, _) -> l) series)
    ~cell:(fun threads label ->
      let _, _, _, code =
        List.find (fun (l, _, _, _) -> String.equal l label) series
      in
      RR.max_latency_ms (Hashtbl.find results (threads, label)) ~code)

(* --- Figure 4: total throughput, coarse vs medium, no long traversals --- *)

let fig4 (s : settings) =
  print_header
    "Figure 4 — total throughput [op/s], long traversals disabled, coarse \
     vs medium";
  let series =
    List.concat_map
      (fun workload ->
        List.map
          (fun runtime ->
            ( Printf.sprintf "%s %s"
                (String.uppercase_ascii (W.kind_to_string workload))
                runtime,
              runtime,
              workload ))
          [ "coarse"; "medium" ])
      W.all_kinds
  in
  let results = Hashtbl.create 32 in
  List.iter
    (fun threads ->
      List.iter
        (fun (label, runtime, workload) ->
          let r =
            run_point s
              (point ~runtime ~workload ~threads ~long_traversals:false ())
          in
          Hashtbl.replace results (threads, label) r)
        series)
    s.threads;
  print_series ~row_label:"threads" ~rows:s.threads
    ~series:(List.map (fun (l, _, _) -> l) series)
    ~cell:(fun threads label ->
      RR.throughput (Hashtbl.find results (threads, label)))

(* --- Table 3: coarse locking vs ASTM, long traversals disabled --- *)

let table3 (s : settings) =
  print_header
    "Table 3 — total throughput [op/s]: coarse-grained locking vs ASTM, \
     long traversals disabled";
  Printf.printf "%-8s" "threads";
  List.iter
    (fun workload ->
      let w = W.kind_long_name workload in
      Printf.printf " %14s %14s" (w ^ " lock") (w ^ " ASTM"))
    W.all_kinds;
  print_newline ();
  List.iter
    (fun threads ->
      Printf.printf "%-8d" threads;
      List.iter
        (fun workload ->
          let lock =
            run_point s
              (point ~runtime:"coarse" ~workload ~threads
                 ~long_traversals:false ())
          in
          let astm =
            run_point s
              (point ~runtime:"astm" ~workload ~threads
                 ~long_traversals:false ())
          in
          Printf.printf " %14.1f %14.1f" (RR.throughput lock)
            (RR.throughput astm))
        W.all_kinds;
      print_newline ())
    s.threads

(* --- Figure 6: reduced benchmark, ASTM vs both locking strategies --- *)

let fig6 (s : settings) =
  print_header
    "Figure 6 — total throughput [op/s] on the reduced (§5) benchmark: \
     ASTM vs coarse vs medium";
  note
    "operations with huge read sets or big-object updates disabled; long \
     traversals disabled";
  List.iter
    (fun workload ->
      Printf.printf "\n%s workload:\n" (W.kind_long_name workload);
      let series = [ "coarse"; "medium"; "astm" ] in
      let results = Hashtbl.create 16 in
      List.iter
        (fun threads ->
          List.iter
            (fun runtime ->
              let r =
                run_point s
                  (point ~runtime ~workload ~threads ~long_traversals:false
                     ~reduced:true ~index_kind:Sb7_core.Index_intf.Btree ())
              in
              Hashtbl.replace results (threads, runtime) r)
            series)
        s.threads;
      print_series ~row_label:"threads" ~rows:s.threads ~series
        ~cell:(fun threads runtime ->
          RR.throughput (Hashtbl.find results (threads, runtime))))
    W.all_kinds

(* --- §5 anecdote: a single T1 execution under each strategy --- *)

let t1_astm (s : settings) =
  print_header
    "§5 anecdote — latency of ONE T1 execution (single thread) per strategy";
  note
    "the paper: T1 under ASTM took ~30 min vs ~1.5 s under locking (2000x); \
     the ratio below shows the same blow-up, scaled down with the structure";
  let scale, scale_name =
    (* T1's read set under ASTM grows with the structure and validation
       is quadratic in it: at the paper's medium scale one T1 takes tens
       of minutes (their "half an hour" anecdote). The small scale shows
       the same blow-up in seconds, so cap at small. *)
    if s.scale_name = "tiny" then (Sb7_core.Parameters.tiny, "tiny")
    else (Sb7_core.Parameters.small, "small")
  in
  let s = { s with scale; scale_name } in
  (* Run T1 directly through each runtime for an exact measurement. *)
  let measure runtime_name =
    match Sb7_runtime.Registry.find runtime_name with
    | Error e -> failwith e
    | Ok runtime ->
      let module R = (val runtime : Sb7_runtime.Runtime_intf.S) in
      let module I = Sb7_core.Instance.Make (R) in
      let setup = I.Setup.create ~seed:s.seed s.scale in
      let op =
        match I.Operation.by_code "T1" with
        | Some op -> op
        | None -> assert false
      in
      let rng = Sb7_core.Sb_random.create ~seed:7 in
      let t0 = Unix.gettimeofday () in
      let visited =
        R.atomic ~profile:op.I.Operation.profile (fun () ->
            op.I.Operation.run rng setup)
      in
      let dt = Unix.gettimeofday () -. t0 in
      (dt *. 1000., visited)
  in
  Printf.printf "scale: %s\n\n%-10s %16s %12s\n" s.scale_name "strategy"
    "latency [ms]" "parts";
  let base = ref 0. in
  List.iter
    (fun runtime ->
      let ms, visited = measure runtime in
      if runtime = "coarse" then base := ms;
      let ratio = if !base > 0. then ms /. !base else 1. in
      Printf.printf "%-10s %16.2f %12d   (%.1fx vs coarse)\n" runtime ms
        visited ratio)
    [ "seq"; "coarse"; "medium"; "tl2"; "lsa"; "astm" ]

(* --- Quick perf snapshot: the repo's trajectory file --- *)

(* A deterministic, seconds-long point per strategy: fixed seed, one
   thread, bounded op count, tiny scale. With main's [--json] flag the
   numbers land in BENCH_quick.json, so successive PRs accumulate a
   perf trajectory (`BENCH_*.json`) that is cheap enough for CI. *)
let quick (s : settings) =
  print_header
    "Quick perf snapshot — fixed-seed, single-thread, bounded op count \
     (tiny scale, no long traversals)";
  let max_ops = 400 in
  (* Every registered strategy, in registry order — the sweep (and the
     JSON trajectory) picks up new runtimes automatically. *)
  let runtimes = Sb7_runtime.Registry.names in
  let s = { s with scale = Sb7_core.Parameters.tiny; scale_name = "tiny" } in
  let results =
    List.map
      (fun runtime ->
        let r =
          run_point s
            (point ~runtime ~workload:W.Read_write ~threads:1
               ~long_traversals:false ~max_ops ())
        in
        (runtime, r))
      runtimes
  in
  (* Read-dominated, 2 threads, STM runtimes with a read-only fast
     path: the configuration the zero-log/snapshot modes target (and
     the CI guard that [ro_zero_log_commits] stays > 0 for tl2). *)
  let ro_results =
    List.map
      (fun runtime ->
        let r =
          run_point s
            (point ~runtime ~workload:W.Read_dominated ~threads:2
               ~long_traversals:false ~max_ops ())
        in
        (runtime, r))
      [ "tl2"; "lsa" ]
  in
  (* 1/2/4/8-domain series on the read-dominated workload — the
     paper's evaluation axis (§5). Duration-based points (not op
     budgets) so throughput is comparable across domain counts; short
     windows keep CI cost bounded. *)
  let scaling_threads = [ 1; 2; 4; 8 ] in
  let scaling_settings = { s with duration = 0.4; warmup = 0.1 } in
  let scaling_results =
    List.map
      (fun runtime ->
        ( runtime,
          List.map
            (fun threads ->
              let r =
                run_point scaling_settings
                  (point ~runtime ~workload:W.Read_dominated ~threads
                     ~long_traversals:false ())
              in
              (threads, r))
            scaling_threads ))
      [ "tl2"; "lsa" ]
  in
  (* Long traversals + writers at 2 domains — the configuration the
     checkpoint/partial-abort machinery targets (docs/PERF.md §7). One
     binary, two runs per STM: the baseline flips
     [Stm_intf.partial_abort_enabled] off, so "full abort" is the very
     same code minus checkpoint salvage. Write-dominated keeps enough
     concurrent committers to force mid-traversal conflicts. *)
  let lt_settings = { s with duration = 0.6; warmup = 0.1 } in
  let lt_variants =
    [ ("tl2", false); ("tl2", true); ("lsa", false); ("lsa", true) ]
  in
  let lt_results =
    List.map
      (fun (runtime, checkpointed) ->
        Sb7_stm.Stm_intf.partial_abort_enabled := checkpointed;
        let r =
          run_point lt_settings
            (point ~runtime ~workload:W.Write_dominated ~threads:2 ())
        in
        Sb7_stm.Stm_intf.partial_abort_enabled := true;
        ((runtime, checkpointed), r))
      lt_variants
  in
  (* Phase change: read-dominated then write-dominated at 2 domains —
     the configuration the adaptive tournament targets (docs/PERF.md
     §8). Per-phase totals are summed per runtime; substrate_switches
     comes from the runtime counters captured at the end of each phase
     (Benchmark.run resets runtime stats per run, so the two phases
     are summed here, not double-counted). *)
  let phase_settings = { s with duration = 0.4; warmup = 0.1 } in
  let phase_workloads = [ W.Read_dominated; W.Write_dominated ] in
  let phase_results =
    List.map
      (fun runtime ->
        ( runtime,
          List.map
            (fun workload ->
              let r =
                run_point phase_settings
                  (point ~runtime ~workload ~threads:2
                     ~long_traversals:false ())
              in
              (workload, r))
            phase_workloads ))
      [ "tournament"; "tl2"; "norec"; "etl" ]
  in
  (* Committed ops per second across both phases (op counts summed,
     windows summed), plus the adaptive counters. *)
  let phase_totals series =
    let ops, elapsed, switches, decisions =
      List.fold_left
        (fun (ops, el, sw, dec) ((_ : W.kind), r) ->
          ( ops +. (RR.throughput r *. r.RR.elapsed_s),
            el +. r.RR.elapsed_s,
            sw + RR.counter r "substrate_switches",
            dec + RR.counter r "epoch_decisions" ))
        (0., 0., 0, 0) series
    in
    ((if elapsed > 0. then ops /. elapsed else 0.), switches, decisions)
  in
  (* Allocation probe: every STM substrate twice back-to-back at 2
     domains. The first run's worker domains donate their descriptors
     to the substrate pool on exit, so the second (reported) run's
     workers adopt them and [descriptor_pool_hits] is deterministically
     positive — the CI allocation gate keys on this, and on
     minor-words-per-commit staying put (docs/PERF.md §9). *)
  let alloc_settings = { s with duration = 0.3; warmup = 0. } in
  let alloc_runtimes = [ "tl2"; "lsa"; "norec"; "etl" ] in
  let alloc_results =
    List.map
      (fun runtime ->
        let pt =
          point ~runtime ~workload:W.Read_write ~threads:2
            ~long_traversals:false ()
        in
        ignore (run_point alloc_settings pt);
        (runtime, run_point alloc_settings pt))
      alloc_runtimes
  in
  (* Uniform vs conflict-aware dispatch on the write-dominated mix at 2
     domains — the configuration the static conflict matrix targets
     (docs/FOOTPRINT.md). Duration-based so abort pressure is real. *)
  let dispatch_modes = [ D.Uniform; D.Conflict_aware ] in
  let dispatch_settings = { s with duration = 0.4; warmup = 0.1 } in
  let dispatch_results =
    List.map
      (fun runtime ->
        ( runtime,
          List.map
            (fun dispatch ->
              let r =
                run_point dispatch_settings
                  (point ~runtime ~workload:W.Write_dominated ~threads:2
                     ~long_traversals:false ~dispatch ())
              in
              (dispatch, r))
            dispatch_modes ))
      [ "tl2"; "lsa" ]
  in
  Printf.printf "%-8s %12s %10s %8s %12s %12s %12s %12s %12s\n" "runtime"
    "ops/s" "commits" "aborts" "valid.steps" "rs.entries" "dedup.hits"
    "bloom.skips" "clk.reuses";
  List.iter
    (fun (runtime, r) ->
      let c k = RR.counter r k in
      Printf.printf "%-8s %12.1f %10d %8d %12d %12d %12d %12d %12d\n" runtime
        (RR.throughput r) (c "commits") (c "aborts") (c "validation_steps")
        (c "read_set_entries") (c "dedup_hits") (c "bloom_skips")
        (c "clock_reuses"))
    results;
  Printf.printf
    "\nread-dominated, 2 threads (read-only fast paths; see docs/PERF.md):\n";
  Printf.printf "%-8s %12s %10s %8s %12s %12s %12s %12s\n" "runtime" "ops/s"
    "commits" "aborts" "ro.zerolog" "ro.revals" "ro.demoted" "max.rs";
  List.iter
    (fun (runtime, r) ->
      let c k = RR.counter r k in
      Printf.printf "%-8s %12.1f %10d %8d %12d %12d %12d %12d\n" runtime
        (RR.throughput r) (c "commits") (c "aborts")
        (c "ro_zero_log_commits")
        (c "ro_inline_revalidations")
        (c "ro_demotions") (c "max_read_set"))
    ro_results;
  Printf.printf
    "\nwrite-dominated, 2 domains, uniform vs conflict-aware dispatch \
     (conflict pairs = statically conflicting op pairs runnable \
     concurrently):\n";
  Printf.printf "%-8s %-15s %15s %12s %10s %8s %12s\n" "runtime" "dispatch"
    "conflict.pairs" "ops/s" "commits" "aborts" "abort.rate";
  List.iter
    (fun (runtime, series) ->
      List.iter
        (fun (dispatch, r) ->
          let commits = RR.counter r "commits"
          and aborts = RR.counter r "aborts" in
          let abort_rate =
            if commits + aborts = 0 then 0.
            else float_of_int aborts /. float_of_int (commits + aborts)
          in
          Printf.printf "%-8s %-15s %15d %12.1f %10d %8d %12.4f\n" runtime
            (D.mode_to_string dispatch)
            r.RR.conflict_pairs (RR.throughput r) commits aborts abort_rate)
        series)
    dispatch_results;
  Printf.printf
    "\nallocation probe, read-write, 2 domains, second of two \
     back-to-back runs (pool hits = domains that adopted a recycled \
     descriptor):\n";
  Printf.printf "%-8s %12s %10s %8s %12s %10s %10s %12s\n" "runtime" "ops/s"
    "commits" "aborts" "words/commit" "mgc/1k" "pool.hits" "pool.misses";
  List.iter
    (fun (runtime, r) ->
      let c k = RR.counter r k in
      Printf.printf "%-8s %12.1f %10d %8d %12.1f %10.2f %10d %12d\n" runtime
        (RR.throughput r) (c "commits") (c "aborts")
        (RR.minor_words_per_commit r)
        (RR.minor_gc_per_1k_commits r)
        (c "descriptor_pool_hits")
        (c "descriptor_pool_misses"))
    alloc_results;
  Printf.printf
    "\nlong traversals + writers, 2 domains, full abort vs checkpointed \
     partial abort (mgc/Mgc = minor/major GC per 1k commits):\n";
  Printf.printf "%-8s %-12s %10s %8s %8s %10s %10s %12s %9s %8s %8s\n"
    "runtime" "mode" "ops/s" "commits" "aborts" "chkpoints" "part.abrt"
    "rd.salvaged" "res.fail" "mgc/1k" "Mgc/1k";
  List.iter
    (fun ((runtime, checkpointed), r) ->
      let c k = RR.counter r k in
      Printf.printf
        "%-8s %-12s %10.1f %8d %8d %10d %10d %12d %9d %8.2f %8.2f\n" runtime
        (if checkpointed then "checkpoint" else "full-abort")
        (RR.throughput r) (c "commits") (c "aborts") (c "checkpoints")
        (c "partial_aborts") (c "reads_salvaged") (c "resume_failures")
        (RR.minor_gc_per_1k_commits r)
        (RR.major_gc_per_1k_commits r))
    lt_results;
  Printf.printf
    "\nphase change, 2 domains: read-dominated then write-dominated \
     (adaptive tournament vs static substrates; ops/s over both \
     phases):\n";
  Printf.printf "%-12s %12s %12s %12s %10s %10s\n" "runtime" "ops/s"
    "read.ops/s" "write.ops/s" "switches" "epochs";
  List.iter
    (fun (runtime, series) ->
      let total, switches, decisions = phase_totals series in
      let per_phase w =
        match List.assoc_opt w series with
        | Some r -> RR.throughput r
        | None -> 0.
      in
      Printf.printf "%-12s %12.1f %12.1f %12.1f %10d %10d\n" runtime total
        (per_phase W.Read_dominated)
        (per_phase W.Write_dominated)
        switches decisions)
    phase_results;
  Printf.printf
    "\ndomain scaling, read-dominated (%.1fs per point, %d host cores; \
     imbalance = max per-domain commits / mean):\n"
    scaling_settings.duration
    (Domain.recommended_domain_count ());
  Printf.printf "%-8s %8s %12s %10s %8s %10s %s\n" "runtime" "domains"
    "ops/s" "commits" "aborts" "imbalance" "per-domain commits";
  List.iter
    (fun (runtime, series) ->
      List.iter
        (fun (threads, r) ->
          Printf.printf "%-8s %8d %12.1f %10d %8d %10.2f [%s]\n" runtime
            threads (RR.throughput r) (RR.counter r "commits")
            (RR.counter r "aborts")
            (RR.commit_imbalance r)
            (String.concat "; "
               (Array.to_list
                  (Array.map string_of_int r.RR.per_domain_successes))))
        series)
    scaling_results;
  if !Bench_common.write_json then begin
    let path = "BENCH_quick.json" in
    let oc = open_out path in
    let b = Buffer.create 2048 in
    Buffer.add_string b "{\n";
    Buffer.add_string b "  \"schema\": \"sb7-bench-quick/7\",\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"scale\": %S,\n  \"workload\": %S,\n  \"threads\": 1,\n\
         \  \"max_ops\": %d,\n  \"seed\": %d,\n  \"long_traversals\": false,\n\
         \  \"minor_heap_words\": %d,\n"
         s.scale_name
         (W.kind_to_string W.Read_write)
         max_ops s.seed
         (Option.value s.minor_heap
            ~default:(Gc.get ()).Gc.minor_heap_size));
    Buffer.add_string b "  \"strategies\": [\n";
    List.iteri
      (fun i (runtime, r) ->
        let c k = RR.counter r k in
        let abort_rate =
          let commits = c "commits" and aborts = c "aborts" in
          if commits + aborts = 0 then 0.
          else float_of_int aborts /. float_of_int (commits + aborts)
        in
        Buffer.add_string b
          (Printf.sprintf
             "    {\"runtime\": %S, \"ops_per_s\": %.1f, \"elapsed_s\": \
              %.3f, \"abort_rate\": %.4f%s}%s\n"
             runtime (RR.throughput r) r.RR.elapsed_s abort_rate
             (String.concat ""
                (List.map
                   (fun k -> Printf.sprintf ", %S: %d" k (c k))
                   Sb7_stm.Stm_stats.names))
             (if i = List.length results - 1 then "" else ",")))
      results;
    Buffer.add_string b "  ],\n";
    Buffer.add_string b
      "  \"ro_read_dominated\": {\"workload\": \"r\", \"threads\": 2, \
       \"strategies\": [\n";
    List.iteri
      (fun i (runtime, r) ->
        let c k = RR.counter r k in
        let abort_rate =
          let commits = c "commits" and aborts = c "aborts" in
          if commits + aborts = 0 then 0.
          else float_of_int aborts /. float_of_int (commits + aborts)
        in
        Buffer.add_string b
          (Printf.sprintf
             "    {\"runtime\": %S, \"ops_per_s\": %.1f, \"elapsed_s\": \
              %.3f, \"abort_rate\": %.4f%s}%s\n"
             runtime (RR.throughput r) r.RR.elapsed_s abort_rate
             (String.concat ""
                (List.map
                   (fun k -> Printf.sprintf ", %S: %d" k (c k))
                   Sb7_stm.Stm_stats.names))
             (if i = List.length ro_results - 1 then "" else ",")))
      ro_results;
    Buffer.add_string b "  ]},\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"dispatch\": {\"workload\": \"w\", \"threads\": 2, \
          \"duration_s\": %.2f, \"host_cores\": %d, \"strategies\": [\n"
         dispatch_settings.duration
         (Domain.recommended_domain_count ()));
    List.iteri
      (fun i (runtime, series) ->
        Buffer.add_string b
          (Printf.sprintf "    {\"runtime\": %S, \"modes\": [\n" runtime);
        List.iteri
          (fun j (dispatch, r) ->
            let commits = RR.counter r "commits"
            and aborts = RR.counter r "aborts" in
            let abort_rate =
              if commits + aborts = 0 then 0.
              else float_of_int aborts /. float_of_int (commits + aborts)
            in
            Buffer.add_string b
              (Printf.sprintf
                 "      {\"dispatch\": %S, \"conflict_pairs\": %d, \
                  \"ops_per_s\": %.1f, \"commits\": %d, \"aborts\": %d, \
                  \"abort_rate\": %.4f}%s\n"
                 (D.mode_to_string dispatch)
                 r.RR.conflict_pairs (RR.throughput r) commits aborts
                 abort_rate
                 (if j = List.length series - 1 then "" else ",")))
          series;
        Buffer.add_string b
          (Printf.sprintf "    ]}%s\n"
             (if i = List.length dispatch_results - 1 then "" else ",")))
      dispatch_results;
    Buffer.add_string b "  ]},\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"alloc\": {\"workload\": \"rw\", \"threads\": 2, \
          \"duration_s\": %.2f, \"host_cores\": %d, \"strategies\": [\n"
         alloc_settings.duration
         (Domain.recommended_domain_count ()));
    List.iteri
      (fun i (runtime, r) ->
        let c k = RR.counter r k in
        Buffer.add_string b
          (Printf.sprintf
             "    {\"runtime\": %S, \"ops_per_s\": %.1f, \"commits\": %d, \
              \"aborts\": %d, \"minor_words_per_commit\": %.1f, \
              \"minor_gc_per_1k_commits\": %.3f, \"descriptor_pool_hits\": \
              %d, \"descriptor_pool_misses\": %d}%s\n"
             runtime (RR.throughput r) (c "commits") (c "aborts")
             (RR.minor_words_per_commit r)
             (RR.minor_gc_per_1k_commits r)
             (c "descriptor_pool_hits")
             (c "descriptor_pool_misses")
             (if i = List.length alloc_results - 1 then "" else ",")))
      alloc_results;
    Buffer.add_string b "  ]},\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"scaling\": {\"workload\": \"r\", \"duration_s\": %.2f, \
          \"host_cores\": %d, \"threads\": [%s], \"strategies\": [\n"
         scaling_settings.duration
         (Domain.recommended_domain_count ())
         (String.concat ", " (List.map string_of_int scaling_threads)));
    List.iteri
      (fun i (runtime, series) ->
        Buffer.add_string b
          (Printf.sprintf "    {\"runtime\": %S, \"series\": [\n" runtime);
        List.iteri
          (fun j (threads, r) ->
            Buffer.add_string b
              (Printf.sprintf
                 "      {\"threads\": %d, \"ops_per_s\": %.1f, \"commits\": \
                  %d, \"aborts\": %d, \"commit_imbalance\": %.3f, \
                  \"per_domain_commits\": [%s]}%s\n"
                 threads (RR.throughput r)
                 (RR.counter r "commits")
                 (RR.counter r "aborts")
                 (RR.commit_imbalance r)
                 (String.concat ", "
                    (Array.to_list
                       (Array.map string_of_int r.RR.per_domain_successes)))
                 (if j = List.length series - 1 then "" else ",")))
          series;
        Buffer.add_string b
          (Printf.sprintf "    ]}%s\n"
             (if i = List.length scaling_results - 1 then "" else ",")))
      scaling_results;
    Buffer.add_string b "  ]},\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"long_traversals\": {\"workload\": \"w\", \"threads\": 2, \
          \"duration_s\": %.2f, \"host_cores\": %d, \"variants\": [\n"
         lt_settings.duration
         (Domain.recommended_domain_count ()));
    List.iteri
      (fun i ((runtime, checkpointed), r) ->
        let c k = RR.counter r k in
        Buffer.add_string b
          (Printf.sprintf
             "    {\"runtime\": %S, \"mode\": %S, \"ops_per_s\": %.1f, \
              \"commits\": %d, \"aborts\": %d, \"checkpoints\": %d, \
              \"partial_aborts\": %d, \"reads_salvaged\": %d, \
              \"resume_failures\": %d, \"minor_gc_per_1k_commits\": %.3f, \
              \"major_gc_per_1k_commits\": %.3f, \
              \"minor_words_per_commit\": %.1f}%s\n"
             runtime
             (if checkpointed then "checkpoint" else "full-abort")
             (RR.throughput r) (c "commits") (c "aborts") (c "checkpoints")
             (c "partial_aborts") (c "reads_salvaged") (c "resume_failures")
             (RR.minor_gc_per_1k_commits r)
             (RR.major_gc_per_1k_commits r)
             (RR.minor_words_per_commit r)
             (if i = List.length lt_results - 1 then "" else ",")))
      lt_results;
    Buffer.add_string b "  ]},\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"phase_mix\": {\"phases\": [\"r\", \"w\"], \"threads\": 2, \
          \"duration_s\": %.2f, \"host_cores\": %d, \"strategies\": [\n"
         phase_settings.duration
         (Domain.recommended_domain_count ()));
    List.iteri
      (fun i (runtime, series) ->
        let total, switches, decisions = phase_totals series in
        let per_phase w =
          match List.assoc_opt w series with
          | Some r -> RR.throughput r
          | None -> 0.
        in
        Buffer.add_string b
          (Printf.sprintf
             "    {\"runtime\": %S, \"ops_per_s\": %.1f, \
              \"read_ops_per_s\": %.1f, \"write_ops_per_s\": %.1f, \
              \"substrate_switches\": %d, \"epoch_decisions\": %d}%s\n"
             runtime total
             (per_phase W.Read_dominated)
             (per_phase W.Write_dominated)
             switches decisions
             (if i = List.length phase_results - 1 then "" else ",")))
      phase_results;
    Buffer.add_string b "  ]}\n}\n";
    Buffer.output_buffer oc b;
    close_out oc;
    Printf.printf "\nwrote %s\n" path
  end

(* --- Per-operation latency, OO7-style isolated measurement --- *)

let oplat (s : settings) =
  print_header
    "Per-operation mean latency [µs], measured in isolation (OO7-style), \
     single thread";
  note "rows: representative operations; columns: synchronization strategies";
  let runtimes = [ "seq"; "coarse"; "medium"; "fine"; "tl2"; "lsa"; "astm" ] in
  let ops =
    [ "ST1"; "ST3"; "ST9"; "OP1"; "OP2"; "OP7"; "OP11"; "SM3"; "T6"; "Q6" ]
  in
  let repeat = 2_000 in
  Printf.printf "%-6s" "op";
  List.iter (fun r -> Printf.printf " %10s" r) runtimes;
  print_newline ();
  List.iter
    (fun code ->
      Printf.printf "%-6s" code;
      List.iter
        (fun runtime ->
          Sb7_stm.Astm.set_policy Sb7_stm.Contention.Polka;
          let config =
            {
              Sb7_harness.Benchmark.default_config with
              threads = 1;
              max_ops = Some repeat;
              workload = W.Read_write;
              only_op = Some code;
              scale = s.scale;
              scale_name = s.scale_name;
              seed = s.seed;
            }
          in
          match Sb7_harness.Driver.run ~runtime_name:runtime config with
          | Error e -> failwith e
          | Ok r ->
            let stat = r.RR.stats.Sb7_harness.Stats.per_op.(0) in
            let mean_us = Sb7_harness.Stats.mean_latency_ms stat *. 1000. in
            Printf.printf " %10.1f" mean_us)
        runtimes;
      print_newline ())
    ops

(* --- Structure-scale sensitivity --- *)

let scaling (s : settings) =
  print_header
    "Scale sensitivity — throughput [op/s] vs structure size (read-write, \
     no long traversals, 2 threads)";
  note
    "ASTM's gap to the locks widens with scale: its validation cost is \
     quadratic in operation read sets, which grow with the structure";
  let runtimes = [ "coarse"; "tl2"; "astm" ] in
  Printf.printf "%-8s" "scale";
  List.iter (fun r -> Printf.printf " %14s" r) runtimes;
  print_newline ();
  List.iter
    (fun (scale_name, scale) ->
      Printf.printf "%-8s" scale_name;
      let s = { s with scale; scale_name } in
      List.iter
        (fun runtime ->
          let r =
            run_point s
              (point ~runtime ~workload:W.Read_write ~threads:2
                 ~long_traversals:false ())
          in
          Printf.printf " %14.1f" (RR.throughput r))
        runtimes;
      print_newline ())
    Sb7_core.Parameters.presets

(* --- Domain scaling: the paper's §5 evaluation axis --- *)

let domains (s : settings) =
  print_header
    "Domain scaling — throughput [op/s] vs worker domains (read-dominated, \
     no long traversals)";
  note
    "commit imbalance = max per-domain commits / mean; 1.00 is perfectly \
     even progress";
  let runtimes = [ "coarse"; "medium"; "fine"; "tl2"; "lsa" ] in
  let threads_list = [ 1; 2; 4; 8 ] in
  let results =
    List.map
      (fun runtime ->
        ( runtime,
          List.map
            (fun threads ->
              let r =
                run_point s
                  (point ~runtime ~workload:W.Read_dominated ~threads
                     ~long_traversals:false ())
              in
              (threads, r))
            threads_list ))
      runtimes
  in
  print_series ~row_label:"domains" ~rows:threads_list ~series:runtimes
    ~cell:(fun row name ->
      RR.throughput (List.assoc row (List.assoc name results)));
  Printf.printf "\ncommit imbalance (max/mean):\n";
  print_series ~row_label:"domains" ~rows:threads_list ~series:runtimes
    ~cell:(fun row name ->
      RR.commit_imbalance (List.assoc row (List.assoc name results)))

(* --- Ablations --- *)

let ablation_index (s : settings) =
  print_header
    "Ablation — index representation under TL2 (write-dominated, reduced, \
     no long traversals)";
  note
    "avl/flat: whole index in ONE tvar (flat also copies the array per \
     update); btree: one tvar per node (§5's proposed fix)";
  let threads = List.fold_left max 1 s.threads in
  Printf.printf "%-8s %16s %16s %16s\n" "threads" "avl" "flat" "btree";
  Printf.printf "%-8d" threads;
  List.iter
    (fun index_kind ->
      let r =
        run_point s
          (point ~runtime:"tl2" ~workload:W.Write_dominated ~threads
             ~long_traversals:false ~reduced:true ~index_kind ())
      in
      Printf.printf " %16.1f" (RR.throughput r))
    Sb7_core.Index_intf.[ Avl; Flat; Btree ];
  print_newline ()

(* --- §6 future work: the "ultimate baseline" fine-grained strategy --- *)

let baseline (s : settings) =
  print_header
    "§6 extension — the \"ultimate baseline\": fine-grained (per-object \
     2PL) locking vs everything else";
  note
    "the paper leaves a fine-grained strategy as future work; this one \
     locks per tvar with no-wait restart";
  List.iter
    (fun workload ->
      Printf.printf "\n%s workload (long traversals disabled):\n"
        (W.kind_long_name workload);
      let series = [ "coarse"; "medium"; "fine"; "tl2"; "lsa"; "astm" ] in
      let results = Hashtbl.create 16 in
      List.iter
        (fun threads ->
          List.iter
            (fun runtime ->
              let r =
                run_point s
                  (point ~runtime ~workload ~threads ~long_traversals:false ())
              in
              Hashtbl.replace results (threads, runtime) r)
            series)
        s.threads;
      print_series ~row_label:"threads" ~rows:s.threads ~series
        ~cell:(fun threads runtime ->
          RR.throughput (Hashtbl.find results (threads, runtime))))
    W.all_kinds

let ablation_cm (s : settings) =
  print_header
    "Ablation — ASTM contention managers (read-write, reduced, no long \
     traversals)";
  let threads = List.fold_left max 1 s.threads in
  Printf.printf "%-12s %16s %12s %12s\n" "manager" "throughput" "commits"
    "aborts";
  List.iter
    (fun cm ->
      let r =
        run_point s
          (point ~runtime:"astm" ~workload:W.Read_write ~threads
             ~long_traversals:false ~reduced:true ~cm ())
      in
      let counters = r.RR.runtime_counters in
      let get k = Option.value (List.assoc_opt k counters) ~default:0 in
      Printf.printf "%-12s %16.1f %12d %12d\n"
        (Sb7_stm.Contention.policy_to_string cm)
        (RR.throughput r) (get "commits") (get "aborts"))
    Sb7_stm.Contention.all_policies

let ablation_stm (s : settings) =
  print_header
    "Ablation — TL2 vs ASTM vs locking across workloads (reduced, no long \
     traversals)";
  note "TL2 stands in for the proposed fixes the paper cites [5,10,11,13]";
  let threads = List.fold_left max 1 s.threads in
  Printf.printf "%-16s %14s %14s %14s %14s %14s\n" "workload" "coarse"
    "medium" "tl2" "lsa" "astm";
  List.iter
    (fun workload ->
      Printf.printf "%-16s" (W.kind_long_name workload);
      List.iter
        (fun runtime ->
          let r =
            run_point s
              (point ~runtime ~workload ~threads ~long_traversals:false
                 ~reduced:true ())
          in
          Printf.printf " %14.1f" (RR.throughput r))
        [ "coarse"; "medium"; "tl2"; "lsa"; "astm" ];
      print_newline ())
    W.all_kinds

(* --- Ablation — descriptor pooling on/off across the STM substrates --- *)

let alloc (s : settings) =
  print_header
    "Allocation ablation — descriptor pooling on/off per STM substrate \
     (words/commit = minor-heap words allocated per committed op)";
  note
    "pooling off: every domain allocates a fresh descriptor and donates \
     nothing back; within a pooling-on row, later points adopt \
     descriptors donated by earlier ones (same process, same pool)";
  let s = { s with duration = Float.min s.duration 0.4 } in
  Printf.printf "%-8s %-10s %8s %-8s %12s %13s %8s %10s %10s\n" "runtime"
    "workload" "domains" "pooling" "ops/s" "words/commit" "mgc/1k"
    "pool.hits" "pool.misses";
  List.iter
    (fun runtime ->
      List.iter
        (fun workload ->
          List.iter
            (fun threads ->
              List.iter
                (fun pooling ->
                  Sb7_stm.Stm_intf.descriptor_pooling_enabled := pooling;
                  let r =
                    run_point s
                      (point ~runtime ~workload ~threads
                         ~long_traversals:false ())
                  in
                  Sb7_stm.Stm_intf.descriptor_pooling_enabled := true;
                  let c k = RR.counter r k in
                  Printf.printf
                    "%-8s %-10s %8d %-8s %12.1f %13.1f %8.2f %10d %10d\n"
                    runtime
                    (W.kind_to_string workload)
                    threads
                    (if pooling then "on" else "off")
                    (RR.throughput r)
                    (RR.minor_words_per_commit r)
                    (RR.minor_gc_per_1k_commits r)
                    (c "descriptor_pool_hits")
                    (c "descriptor_pool_misses"))
                [ true; false ])
            [ 1; 2; 4 ])
        [ W.Read_dominated; W.Write_dominated ])
    [ "tl2"; "lsa"; "norec"; "etl" ]
