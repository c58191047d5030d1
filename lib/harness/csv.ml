(** Machine-readable export of run results, for plotting the figures
    outside the harness (gnuplot, matplotlib, a spreadsheet).

    Two shapes:
    - {!summary_row} — one line per run: the inputs plus total
      throughput, matching the paper's figure data points;
    - {!per_op_rows} — one line per operation of a run: the detailed
      results section as data. *)

(* The STM counters exported per summary row, one column each in
   declaration order; 0 for counters a runtime does not export. *)
let header_summary =
  String.concat ","
    ([
       "runtime,workload,threads,scale,index,long_traversals,\
        structure_mods,reduced,elapsed_s,successes,failures,\
        throughput_ops,started_ops";
     ]
    @ Sb7_stm.Stm_stats.names
    @ [
        "minor_gc_per_1k_commits,major_gc_per_1k_commits,\
         minor_words_per_commit,minor_heap_words,commit_imbalance,\
         per_domain_successes,seed,champion_occupancy,sanitizer";
      ])

let escape field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let summary_row (r : Run_result.t) =
  Printf.sprintf "%s,%s,%d,%s,%s,%b,%b,%b,%.3f,%d,%d,%.2f,%.2f,%s"
    (escape r.runtime_name)
    (Workload.kind_to_string r.workload)
    r.threads (escape r.scale_name)
    (Sb7_core.Index_intf.kind_to_string r.index_kind)
    r.long_traversals r.structure_mods r.reduced_ops r.elapsed_s
    (Stats.total_successes r.stats)
    (Stats.total_failures r.stats)
    (Run_result.throughput r)
    (Run_result.attempts_throughput r)
    (String.concat ","
       (List.map
          (fun k -> string_of_int (Run_result.counter r k))
          Sb7_stm.Stm_stats.names))
  (* Semicolon-joined so the per-domain vector stays one CSV field. *)
  ^ Printf.sprintf ",%.3f,%.3f,%.1f,%d,%.3f,%s,%d,%s,%s"
      (Run_result.minor_gc_per_1k_commits r)
      (Run_result.major_gc_per_1k_commits r)
      (Run_result.minor_words_per_commit r)
      r.minor_heap_words
      (Run_result.commit_imbalance r)
      (String.concat ";"
         (Array.to_list (Array.map string_of_int r.per_domain_successes)))
      r.seed
      (* Tournament champion occupancy, "name:epochs" semicolon-joined
         (one comma-free field); "-" for the single-substrate
         runtimes. *)
      (match Run_result.champion_occupancy r with
      | [] -> "-"
      | occ ->
        String.concat ";"
          (List.map (fun (n, e) -> Printf.sprintf "%s:%d" n e) occ))
      (* comma-free by construction (Checker.csv_cell) *)
      (match r.sanitizer with
      | None -> "off"
      | Some v -> Sb7_sanitize.Checker.csv_cell v)

let header_per_op =
  "runtime,workload,threads,op,category,read_only,successes,failures,\
   max_latency_ms,mean_latency_ms"

let per_op_rows (r : Run_result.t) =
  Array.to_list
    (Array.mapi
       (fun i (o : Workload.op_desc) ->
         let s = r.stats.Stats.per_op.(i) in
         Printf.sprintf "%s,%s,%d,%s,%s,%b,%d,%d,%.3f,%.3f"
           (escape r.runtime_name)
           (Workload.kind_to_string r.workload)
           r.threads (escape o.code)
           (Sb7_core.Category.to_string o.category)
           o.read_only s.Stats.successes s.Stats.failures
           s.Stats.max_latency_ms (Stats.mean_latency_ms s))
       r.ops)

(** Write one summary line per result, with the header. *)
let write_summary oc results =
  output_string oc header_summary;
  output_char oc '\n';
  List.iter
    (fun r ->
      output_string oc (summary_row r);
      output_char oc '\n')
    results

(** Write the per-operation detail of every result, with the header. *)
let write_per_op oc results =
  output_string oc header_per_op;
  output_char oc '\n';
  List.iter
    (fun r ->
      List.iter
        (fun row ->
          output_string oc row;
          output_char oc '\n')
        (per_op_rows r))
    results
