(** Machine-readable export of run results, for plotting the figures
    outside the harness (gnuplot, matplotlib, a spreadsheet).

    Two shapes:
    - {!summary_row} — one line per run: the inputs plus total
      throughput, matching the paper's figure data points;
    - {!per_op_rows} — one line per operation of a run: the detailed
      results section as data. *)

let escape field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

(* The summary columns, each a header name and how a run renders under
   it. The STM counters sit after [started_ops], one column each in
   declaration order; 0 for counters a runtime does not export. *)
let summary_columns : (string * (Run_result.t -> string)) list =
  let str f (r : Run_result.t) = f r in
  let int f = str (fun r -> string_of_int (f r)) in
  let bool f = str (fun r -> string_of_bool (f r)) in
  let fixed decimals f = str (fun r -> Printf.sprintf "%.*f" decimals (f r)) in
  [
    ("runtime", str (fun r -> escape r.runtime_name));
    ("workload", str (fun r -> Workload.kind_to_string r.workload));
    ("threads", int (fun r -> r.threads));
    ("scale", str (fun r -> escape r.scale_name));
    ("index", str (fun r -> Sb7_core.Index_intf.kind_to_string r.index_kind));
    ("long_traversals", bool (fun r -> r.long_traversals));
    ("structure_mods", bool (fun r -> r.structure_mods));
    ("reduced", bool (fun r -> r.reduced_ops));
    ("elapsed_s", fixed 3 (fun r -> r.elapsed_s));
    ("successes", int (fun r -> Stats.total_successes r.stats));
    ("failures", int (fun r -> Stats.total_failures r.stats));
    ("throughput_ops", fixed 2 Run_result.throughput);
    ("started_ops", fixed 2 Run_result.attempts_throughput);
  ]
  @ List.map
      (fun k -> (k, int (fun r -> Run_result.counter r k)))
      Sb7_stm.Stm_stats.names
  @ [
      ("minor_gc_per_1k_commits", fixed 3 Run_result.minor_gc_per_1k_commits);
      ("major_gc_per_1k_commits", fixed 3 Run_result.major_gc_per_1k_commits);
      ("minor_words_per_commit", fixed 1 Run_result.minor_words_per_commit);
      ("minor_heap_words", int (fun r -> r.minor_heap_words));
      ("commit_imbalance", fixed 3 Run_result.commit_imbalance);
      (* Semicolon-joined so the per-domain vector stays one CSV field. *)
      ( "per_domain_successes",
        str (fun r ->
            String.concat ";"
              (Array.to_list (Array.map string_of_int r.per_domain_successes)))
      );
      ("seed", int (fun r -> r.seed));
      (* Tournament champion occupancy, "name:epochs" semicolon-joined
         (one comma-free field); "-" for the single-substrate
         runtimes. *)
      ( "champion_occupancy",
        str (fun r ->
            match Run_result.champion_occupancy r with
            | [] -> "-"
            | occ ->
              String.concat ";"
                (List.map (fun (n, e) -> Printf.sprintf "%s:%d" n e) occ)) );
      (* comma-free by construction (Checker.csv_cell) *)
      ( "sanitizer",
        str (fun r ->
            match r.sanitizer with
            | None -> "off"
            | Some v -> Sb7_sanitize.Checker.csv_cell v) );
    ]

let header_summary = String.concat "," (List.map fst summary_columns)

let summary_row r =
  String.concat "," (List.map (fun (_, cell) -> cell r) summary_columns)

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
