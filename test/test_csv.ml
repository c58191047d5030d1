(* Tests for latency percentiles and the CSV export. *)

module Stats = Sb7_harness.Stats
module Csv = Sb7_harness.Csv
module B = Sb7_harness.Benchmark
module W = Sb7_harness.Workload
module P = Sb7_core.Parameters

(* --- Percentiles --- *)

let record_many s latencies_ms =
  List.iter
    (fun ms -> Stats.record s ~op:0 ~latency_s:(ms /. 1000.) ~ok:true)
    latencies_ms

let test_percentile_basic () =
  let s = Stats.create ~ops:1 ~histograms:true in
  (* 100 samples: 1..100 ms (bucket k-1 each). *)
  record_many s (List.init 100 (fun i -> float_of_int i +. 0.5));
  let st = s.Stats.per_op.(0) in
  (match Stats.percentile_ms st 0.5 with
  | Some p -> Alcotest.(check bool) "p50 around 50" true (p >= 49. && p <= 52.)
  | None -> Alcotest.fail "no p50");
  (match Stats.percentile_ms st 0.99 with
  | Some p -> Alcotest.(check bool) "p99 around 99" true (p >= 98. && p <= 100.)
  | None -> Alcotest.fail "no p99");
  match Stats.percentile_ms st 1.0 with
  | Some p -> Alcotest.(check bool) "p100 is max bucket" true (p >= 99.)
  | None -> Alcotest.fail "no p100"

let test_percentile_single_sample () =
  let s = Stats.create ~ops:1 ~histograms:true in
  Stats.record s ~op:0 ~latency_s:0.0035 ~ok:true;
  match Stats.percentile_ms s.Stats.per_op.(0) 0.5 with
  | Some p -> Alcotest.(check (float 0.01)) "single sample bucket" 4. p
  | None -> Alcotest.fail "no percentile"

let test_percentile_without_histograms () =
  let s = Stats.create ~ops:1 ~histograms:false in
  Stats.record s ~op:0 ~latency_s:0.001 ~ok:true;
  Alcotest.(check bool) "None without histograms" true
    (Stats.percentile_ms s.Stats.per_op.(0) 0.5 = None)

let test_percentile_no_successes () =
  let s = Stats.create ~ops:1 ~histograms:true in
  Stats.record s ~op:0 ~latency_s:0.001 ~ok:false;
  Alcotest.(check bool) "None without successes" true
    (Stats.percentile_ms s.Stats.per_op.(0) 0.5 = None)

let test_mean_latency () =
  let s = Stats.create ~ops:1 ~histograms:false in
  Stats.record s ~op:0 ~latency_s:0.010 ~ok:true;
  Stats.record s ~op:0 ~latency_s:0.020 ~ok:true;
  Alcotest.(check (float 0.001)) "mean" 15.
    (Stats.mean_latency_ms s.Stats.per_op.(0));
  let empty = Stats.create ~ops:1 ~histograms:false in
  Alcotest.(check (float 0.001)) "empty mean" 0.
    (Stats.mean_latency_ms empty.Stats.per_op.(0))

(* --- CSV --- *)

let run_tiny runtime_name =
  lazy
    (let config =
       {
         B.default_config with
         B.threads = 2;
         max_ops = Some 200;
         workload = W.Read_write;
         scale = P.tiny;
         scale_name = "tiny";
         seed = 4;
       }
     in
     match Sb7_harness.Driver.run ~runtime_name config with
     | Ok r -> r
     | Error e -> failwith e)

let result = run_tiny "coarse"

(* The tournament's row is the one whose champion_occupancy cell is
   built from a list rather than being "-". *)
let tournament = run_tiny "tournament"

let fields line = String.split_on_char ',' line

let test_summary_row_fields () =
  let header = fields Csv.header_summary in
  let row r = fields (Csv.summary_row (Lazy.force r)) in
  List.iter
    (fun (name, r) ->
      Alcotest.(check int)
        (name ^ ": field count matches header")
        (List.length header)
        (List.length (row r)))
    [ ("coarse", result); ("tournament", tournament) ];
  let occupancy =
    List.assoc "champion_occupancy" (List.combine header (row tournament))
  in
  Alcotest.(check bool)
    ("tournament champion_occupancy is filled: " ^ occupancy)
    true (occupancy <> "-");
  let fs = row result in
  Alcotest.(check string) "runtime" "coarse" (List.nth fs 0);
  Alcotest.(check string) "workload" "rw" (List.nth fs 1);
  Alcotest.(check string) "threads" "2" (List.nth fs 2);
  Alcotest.(check string) "scale" "tiny" (List.nth fs 3)

(* The counter columns follow [started_ops] and are generated from the
   STM counter declarations: every declared counter, in order. *)
let test_header_counter_columns () =
  let names = List.map fst Sb7_stm.Stm_stats.(to_assoc zero) in
  let rec after_started_ops = function
    | "started_ops" :: rest -> rest
    | _ :: rest -> after_started_ops rest
    | [] -> []
  in
  Alcotest.(check (list string))
    "counter columns are the Stm_stats declarations" names
    (List.filteri
       (fun i _ -> i < List.length names)
       (after_started_ops (fields Csv.header_summary)))

let test_per_op_rows () =
  let r = Lazy.force result in
  let rows = Csv.per_op_rows r in
  Alcotest.(check int) "one row per op" (Array.length r.ops)
    (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "field count"
        (List.length (fields Csv.header_per_op))
        (List.length (fields row)))
    rows

let test_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_write_summary () =
  let r = Lazy.force result in
  let buf = Buffer.create 256 in
  let path = Filename.temp_file "sb7" ".csv" in
  let oc = open_out path in
  Csv.write_summary oc [ r; r ];
  close_out oc;
  let ic = open_in path in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header first" Csv.header_summary (List.hd lines)

let suite =
  [
    Alcotest.test_case "percentile basic" `Quick test_percentile_basic;
    Alcotest.test_case "percentile single sample" `Quick
      test_percentile_single_sample;
    Alcotest.test_case "percentile without histograms" `Quick
      test_percentile_without_histograms;
    Alcotest.test_case "percentile without successes" `Quick
      test_percentile_no_successes;
    Alcotest.test_case "mean latency" `Quick test_mean_latency;
    Alcotest.test_case "summary row fields" `Slow test_summary_row_fields;
    Alcotest.test_case "header counter columns" `Quick
      test_header_counter_columns;
    Alcotest.test_case "per-op rows" `Slow test_per_op_rows;
    Alcotest.test_case "escaping" `Quick test_escape;
    Alcotest.test_case "write summary file" `Slow test_write_summary;
  ]

let () = Alcotest.run "csv" [ ("csv", suite) ]
