(** Benchmark output, following the sections of the paper's Appendix A:
    benchmark parameters, optional TTC histograms, detailed per-operation
    results, sample errors, and summary results. *)

module Category = Sb7_core.Category

let section ppf title =
  Format.fprintf ppf "@.-- %s --@." title

let print_parameters ppf (r : Run_result.t) =
  section ppf "Benchmark parameters";
  Format.fprintf ppf "Synchronization:      %s@." r.runtime_name;
  Format.fprintf ppf "Workload:             %s@."
    (Workload.kind_long_name r.workload);
  if r.mix <> Workload.default_mix then
    Format.fprintf ppf "Category mix:         %s (LT:ST:OP:SM)@."
      (Workload.mix_to_string r.mix);
  Format.fprintf ppf "Threads:              %d@." r.threads;
  Format.fprintf ppf "Length:               %.1f s (elapsed %.2f s)@."
    r.requested_s r.elapsed_s;
  Format.fprintf ppf "Scale:                %s@." r.scale_name;
  Format.fprintf ppf "Index kind:           %s@."
    (Sb7_core.Index_intf.kind_to_string r.index_kind);
  Format.fprintf ppf "Long traversals:      %s@."
    (if r.long_traversals then "enabled" else "disabled");
  Format.fprintf ppf "Structure mods:       %s@."
    (if r.structure_mods then "enabled" else "disabled");
  if r.reduced_ops then
    Format.fprintf ppf "Operation set:        reduced (§5)@."

let print_histograms ppf (r : Run_result.t) =
  if r.stats.Stats.with_histograms then begin
    section ppf "TTC histograms";
    Array.iteri
      (fun i (o : Workload.op_desc) ->
        let h = r.stats.Stats.per_op.(i).Stats.histogram in
        if h <> [||] then begin
          Format.fprintf ppf "TTC histogram for %s:" o.code;
          Array.iteri
            (fun ttc count ->
              if count > 0 then Format.fprintf ppf " %d,%d" ttc count)
            h;
          Format.fprintf ppf "@."
        end)
      r.ops
  end

let print_detailed ppf (r : Run_result.t) =
  section ppf "Detailed results";
  let with_percentiles = r.stats.Stats.with_histograms in
  if with_percentiles then
    Format.fprintf ppf "%-6s %12s %16s %10s %10s %10s@." "op" "successes"
      "max latency [ms]" "failures" "p50 [ms]" "p99 [ms]"
  else
    Format.fprintf ppf "%-6s %12s %16s %10s@." "op" "successes"
      "max latency [ms]" "failures";
  Array.iteri
    (fun i (o : Workload.op_desc) ->
      let s = r.stats.Stats.per_op.(i) in
      if with_percentiles then begin
        let pct q =
          match Stats.percentile_ms s q with
          | Some ms -> Printf.sprintf "%.0f" ms
          | None -> "-"
        in
        Format.fprintf ppf "%-6s %12d %16.2f %10d %10s %10s@." o.code
          s.Stats.successes s.Stats.max_latency_ms s.Stats.failures
          (pct 0.5) (pct 0.99)
      end
      else
        Format.fprintf ppf "%-6s %12d %16.2f %10d@." o.code s.Stats.successes
          s.Stats.max_latency_ms s.Stats.failures)
    r.ops

(* Per-operation sample errors: C = ratio computed from the input
   parameters, R = achieved ratio among successful operations,
   E = |C - R|; A = achieved ratio among started (successful or failed)
   operations, F = |A - R|. *)
let sample_errors (r : Run_result.t) =
  let total_s = max 1 (Stats.total_successes r.stats) in
  let total_a = max 1 (Stats.total_attempts r.stats) in
  Array.mapi
    (fun i (_ : Workload.op_desc) ->
      let s = r.stats.Stats.per_op.(i) in
      let c = r.expected.(i) in
      let rr = float_of_int s.Stats.successes /. float_of_int total_s in
      let a = float_of_int (Stats.attempts s) /. float_of_int total_a in
      (c, rr, abs_float (c -. rr), a, abs_float (a -. rr)))
    r.ops

let print_sample_errors ppf (r : Run_result.t) =
  section ppf "Sample errors";
  Format.fprintf ppf "%-6s %8s %8s %8s %8s %8s@." "op" "C" "R" "E" "A" "F";
  let errors = sample_errors r in
  Array.iteri
    (fun i (o : Workload.op_desc) ->
      let c, rr, e, a, f = errors.(i) in
      Format.fprintf ppf "%-6s %8.4f %8.4f %8.4f %8.4f %8.4f@." o.code c rr e
        a f)
    r.ops

let print_summary ppf (r : Run_result.t) =
  section ppf "Summary results";
  Format.fprintf ppf "%-24s %10s %16s %10s %10s@." "category" "successes"
    "max latency [ms]" "failures" "started";
  List.iter
    (fun cat ->
      let s, f, max_ms = Run_result.category_totals r cat in
      if s + f > 0 then
        Format.fprintf ppf "%-24s %10d %16.2f %10d %10d@."
          (Category.to_string cat) s max_ms f (s + f))
    Category.all;
  let errors = sample_errors r in
  let e_total = Array.fold_left (fun acc (_, _, e, _, _) -> acc +. e) 0. errors in
  let f_total = Array.fold_left (fun acc (_, _, _, _, f) -> acc +. f) 0. errors in
  Format.fprintf ppf "Total sample error E: %.4f  F: %.4f@." e_total f_total;
  Format.fprintf ppf
    "Total throughput:     %.1f op/s completed, %.1f op/s started@."
    (Run_result.throughput r)
    (Run_result.attempts_throughput r);
  Format.fprintf ppf "Elapsed time:         %.2f s@." r.elapsed_s;
  Format.fprintf ppf
    "GC pressure:          %.2f minor / %.2f major collections per 1k \
     commits@."
    (Run_result.minor_gc_per_1k_commits r)
    (Run_result.major_gc_per_1k_commits r);
  Format.fprintf ppf
    "Allocation:           %.1f minor words per commit (minor heap %d \
     words)@."
    (Run_result.minor_words_per_commit r)
    r.minor_heap_words;
  if r.threads > 1 then
    Format.fprintf ppf
      "Per-domain successes: [%s]  commit imbalance (max/mean): %.2f@."
      (String.concat "; "
         (Array.to_list (Array.map string_of_int r.per_domain_successes)))
      (Run_result.commit_imbalance r);
  if r.runtime_counters <> [] then begin
    Format.fprintf ppf "Runtime counters:    ";
    List.iter
      (fun (k, v) -> Format.fprintf ppf " %s=%d" k v)
      r.runtime_counters;
    Format.fprintf ppf "@."
  end;
  match r.sanitizer with
  | None -> ()
  | Some v ->
    section ppf "Sanitizer";
    Format.fprintf ppf "%s@." (Sb7_sanitize.Checker.summary v)

let print ppf (r : Run_result.t) =
  print_parameters ppf r;
  print_histograms ppf r;
  print_detailed ppf r;
  print_sample_errors ppf r;
  print_summary ppf r
