(* One function per table / figure of the paper's evaluation, plus the
   ablations this reproduction adds. Each prints the same rows/series
   the paper plots; EXPERIMENTS.md records the paper-vs-measured
   comparison. *)

open Bench_common
module W = Sb7_harness.Workload
module RR = Sb7_harness.Run_result
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

(* BENCH_quick.json as a value; a float carries its decimals. Objects
   print inline and a list of objects one per line: a row per line. *)
type json =
  | Int of int
  | Fixed of int * float
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let rec json_to_string indent = function
  | Int i -> string_of_int i
  | Fixed (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Obj fields ->
    let field (k, v) = Printf.sprintf "%S: %s" k (json_to_string indent v) in
    "{" ^ String.concat ", " (List.map field fields) ^ "}"
  | List (Obj _ :: _ as rows) ->
    let line v = String.make (indent + 2) ' ' ^ json_to_string (indent + 2) v in
    let rows = String.concat ",\n" (List.map line rows) in
    Printf.sprintf "[\n%s\n%*s]" rows indent ""
  | List l -> "[" ^ String.concat ", " (List.map (json_to_string 0) l) ^ "]"

(* A column is a JSON key and how one run renders under it; a row is the
   labels naming its point, then its run's columns. *)
let int key f = (key, fun r -> Int (f r))
let fixed key decimals f = (key, fun r -> Fixed (decimals, f r))
let counter key = int key (fun r -> RR.counter r key)
let counters = List.map counter
let row labels cols r = Obj (labels @ List.map (fun (k, f) -> (k, f r)) cols)
let ints l = List (List.map (fun n -> Int n) l)
let ops_per_s = fixed "ops_per_s" 1 RR.throughput
let commits_aborts = [ counter "commits"; counter "aborts" ]
let abort_rate = fixed "abort_rate" 4 RR.abort_rate
let minor_words = fixed "minor_words_per_commit" 1 RR.minor_words_per_commit
let minor_gc = fixed "minor_gc_per_1k_commits" 3 RR.minor_gc_per_1k_commits
let major_gc = fixed "major_gc_per_1k_commits" 3 RR.major_gc_per_1k_commits
let runtime name = [ ("runtime", Str name) ]
let elapsed_s = fixed "elapsed_s" 3 (fun r -> r.RR.elapsed_s)
let stm_counters = counters Sb7_stm.Stm_stats.names

(* A runtime's row that nests, under [key], one row per point. *)
let grouped key points row_of rt =
  Obj (runtime rt @ [ (key, List (List.map (row_of rt) points)) ])

(* Fixed-seed points at tiny scale, cheap enough for CI; with main's
   [--json] flag the rows land in BENCH_quick.json. A section prints its
   title, runs its points in order and prints one row each; its value is
   the rows under [key] after its [fields], or the bare rows. *)
let quick (s : settings) =
  print_header
    "Quick perf snapshot — fixed-seed, single-thread, bounded op count \
     (tiny scale, no long traversals)";
  let max_ops = 400 and cores = Domain.recommended_domain_count () in
  let s = { s with scale = Sb7_core.Parameters.tiny; scale_name = "tiny" } in
  let workload w = ("workload", Str w) and two = ("threads", Int 2) in
  let timed head duration warmup =
    let window = ("duration_s", Fixed (2, duration)) in
    ({ s with duration; warmup }, head @ [ window; ("host_cores", Int cores) ])
  in
  let run st ?max_ops ?(long_traversals = false) runtime wl threads =
    run_point st
      (point ~runtime ~workload:wl ~threads ~long_traversals ?max_ops ())
  in
  let section title ?fields ?(key = "strategies") points row_of =
    Printf.printf "\n%s\n" title;
    let rows = List.map row_of points in
    List.iter (fun r -> print_endline (json_to_string 0 r)) rows;
    match fields with
    | None -> List rows
    | Some fields -> Obj (fields @ [ (key, List rows) ])
  in
  let bounded wl threads rt =
    run s ~max_ops rt wl threads
    |> row (runtime rt) (ops_per_s :: elapsed_s :: abort_rate :: stm_counters)
  in
  (* Every registered strategy, in registry order — the sweep (and the
     JSON trajectory) picks up new runtimes automatically. *)
  let strategies =
    section "read-write, 1 thread, 400 ops, every registered strategy:"
      Sb7_runtime.Registry.names (bounded W.Read_write 1)
  in
  (* Read-dominated, 2 threads, STM runtimes with a read-only fast
     path: the configuration the zero-log/snapshot modes target (and
     the CI guard that [ro_zero_log_commits] stays > 0 for tl2). *)
  let ro_read_dominated =
    section
      "read-dominated, 2 threads (read-only fast paths; see docs/PERF.md):"
      ~fields:[ workload "r"; two ]
      [ "tl2"; "lsa" ] (bounded W.Read_dominated 2)
  in
  (* 1/2/4/8-domain series on the read-dominated workload — the paper's
     evaluation axis (§5). Duration-based points (not op budgets) so
     throughput is comparable across domain counts; short windows keep
     CI cost bounded. *)
  let scaling =
    let st, fields = timed [ workload "r" ] 0.4 0.1 in
    let threads = [ 1; 2; 4; 8 ] in
    let per_domain r = ints (Array.to_list r.RR.per_domain_successes) in
    let imbalance = fixed "commit_imbalance" 3 RR.commit_imbalance in
    let cols =
      ops_per_s :: commits_aborts
      @ [ imbalance; ("per_domain_commits", per_domain) ]
    in
    section
      (Printf.sprintf
         "domain scaling, read-dominated (%.1fs per point, %d host cores; \
          imbalance = max per-domain commits / mean):"
         st.duration cores)
      ~fields:(fields @ [ ("threads", ints threads) ])
      [ "tl2"; "lsa" ]
      (grouped "series" threads (fun rt t ->
           run st rt W.Read_dominated t |> row [ ("threads", Int t) ] cols))
  in
  (* Long traversals + writers at 2 domains — the configuration the
     checkpoint/partial-abort machinery targets (docs/PERF.md §7). One
     binary, two runs per STM: the baseline flips
     [Stm_intf.partial_abort_enabled] off, so "full abort" is the very
     same code minus checkpoint salvage. Write-dominated keeps enough
     concurrent committers to force mid-traversal conflicts. *)
  let long_traversals =
    let st, fields = timed [ workload "w"; two ] 0.6 0.1 in
    let salvage =
      [ "checkpoints"; "partial_aborts"; "reads_salvaged"; "resume_failures" ]
    in
    let gc = [ minor_gc; major_gc; minor_words ] in
    let cols = ops_per_s :: commits_aborts @ counters salvage @ gc in
    section
      "long traversals + writers, 2 domains, full abort vs checkpointed \
       partial abort:"
      ~fields ~key:"variants"
      [ ("tl2", false); ("tl2", true); ("lsa", false); ("lsa", true) ]
      (fun (rt, checkpointed) ->
        let mode = if checkpointed then "checkpoint" else "full-abort" in
        with_switch Sb7_stm.Stm_intf.partial_abort_enabled checkpointed
          (fun () -> run st ~long_traversals:true rt W.Write_dominated 2)
        |> row (runtime rt @ [ ("mode", Str mode) ]) cols)
  in
  (* Phase change: read-dominated then write-dominated at 2 domains —
     the configuration the adaptive tournament targets (docs/PERF.md
     §8). A row's run is the pair of phases: ops_per_s is committed ops
     over both windows, and the adaptive counters are summed, since
     Benchmark.run resets runtime stats per run. *)
  let phase_mix =
    let phases = ("phases", List [ Str "r"; Str "w" ]) in
    let st, fields = timed [ phases; two ] 0.4 0.1 in
    let sum f (read, write) = f read +. f write in
    let count k = int k (fun (r, w) -> RR.counter r k + RR.counter w k) in
    let window = sum (fun r -> r.RR.elapsed_s) in
    let ops p = sum (fun r -> RR.throughput r *. r.RR.elapsed_s) p in
    let cols =
      [ fixed "ops_per_s" 1 (fun p ->
            if window p > 0. then ops p /. window p else 0.);
        fixed "read_ops_per_s" 1 (fun (read, _) -> RR.throughput read);
        fixed "write_ops_per_s" 1 (fun (_, write) -> RR.throughput write);
        count "substrate_switches"; count "epoch_decisions" ]
    in
    section
      "phase change, 2 domains: read-dominated then write-dominated \
       (adaptive tournament vs static substrates; ops/s over both phases):"
      ~fields [ "tournament"; "tl2"; "norec"; "etl" ]
      (fun rt ->
        let read = run st rt W.Read_dominated 2 in
        row (runtime rt) cols (read, run st rt W.Write_dominated 2))
  in
  (* Allocation probe: every STM substrate twice back-to-back at 2
     domains. The first run's worker domains donate their descriptors to
     the substrate pool on exit, so the second (reported) run's workers
     adopt them and [descriptor_pool_hits] is deterministically positive
     — the CI allocation gate keys on this, and on minor-words-per-commit
     staying put (docs/PERF.md §9). *)
  let alloc =
    let st, fields = timed [ workload "rw"; two ] 0.3 0. in
    let pool = counters [ "descriptor_pool_hits"; "descriptor_pool_misses" ] in
    let cols = ops_per_s :: commits_aborts @ minor_words :: minor_gc :: pool in
    section
      "allocation probe, read-write, 2 domains, second of two back-to-back \
       runs (pool hits = domains that adopted a recycled descriptor):"
      ~fields [ "tl2"; "lsa"; "norec"; "etl" ]
      (fun rt ->
        ignore (run st rt W.Read_write 2);
        run st rt W.Read_write 2 |> row (runtime rt) cols)
  in
  if !write_json then begin
    let path = "BENCH_quick.json" in
    let heap = Option.value s.minor_heap ~default:(Gc.get ()).minor_heap_size in
    let doc =
      [ ("schema", Str "sb7-bench-quick/8"); ("scale", Str s.scale_name);
        workload (W.kind_to_string W.Read_write); ("threads", Int 1);
        ("max_ops", Int max_ops); ("seed", Int s.seed);
        ("long_traversals", Bool false); ("minor_heap_words", Int heap);
        ("strategies", strategies); ("ro_read_dominated", ro_read_dominated);
        ("alloc", alloc); ("scaling", scaling);
        ("long_traversals", long_traversals); ("phase_mix", phase_mix) ]
    in
    let field (k, v) = Printf.sprintf "  %S: %s" k (json_to_string 2 v) in
    let text = "{\n" ^ String.concat ",\n" (List.map field doc) ^ "\n}\n" in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
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
                  let r =
                    with_switch Sb7_stm.Stm_intf.descriptor_pooling_enabled
                      pooling (fun () ->
                        run_point s
                          (point ~runtime ~workload ~threads
                             ~long_traversals:false ()))
                  in
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
