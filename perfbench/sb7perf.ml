(* The benchmark: runs one named workload over the strategy panel and
   prints its metrics, one per line with its unit, then a JSON summary
   as the last line of standard output. With [--trace 0] it prints the
   end-to-end metrics (tracing off); with [--trace 1] it runs the same
   workload with spans recorded, plus the 1-domain overhead ladder, and
   prints the per-layer metrics. See README.md in this directory. *)

module W = Sb7_harness.Workload
module M = Measure

let panel = [ "medium"; "tl2"; "lsa"; "norec"; "etl"; "tournament" ]
let stms = [ "tl2"; "lsa"; "norec"; "etl"; "tournament" ]
(* The strategies whose check traces are timed, with the multiple of
   [check_accesses] their traces hold: tl2's analysis costs about a
   tenth of fine's per access, so its traces are four times longer,
   which keeps its time well above the host's jitter. *)
let checked = [ ("fine", 1); ("tl2", 4) ]
let checked_names = List.map fst checked

(* The structure preset of every workload. At [small] scale a round on a
   fresh structure runs about 2k op/s under the write-dominated mix, so
   a run sees a few hundred long traversals per member and its numbers
   spread by 10-40% from run to run; [tiny] keeps every operation
   category and gives each member hundreds of thousands of operations
   per run. *)
let scale = "tiny"

(* Worker domains: one for the end-to-end metrics, two for the traced
   run. On a 2-core host the speed of two domains at once moved by up to
   2x for minutes at a time, while one domain kept its speed; with one
   domain a round is also the same work on every repeat. The traced run
   keeps two domains, so the per-layer metrics show contention. *)
let threads ~traced = if traced then 2 else 1

type spec = {
  phases : W.kind list;
      (** one kind: a fixed mix; several: run in turn on one structure *)
  round_ops : int;  (** operations per phase of a round, over all domains *)
  contents : int;  (** distinct round contents, each repeated all run *)
  check_accesses : int;  (** tvar accesses over all of fine's check traces *)
  check_traces : int;
  ladder_ops : int;  (** operations per phase of each ladder rung *)
}

let spec phases round_ops =
  { phases; round_ops; contents = 4; check_accesses = 60_000;
    check_traces = 16; ladder_ops = 2000 }

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
let workloads =
  [
    ("read_dom", spec [ W.Read_dominated ] 4000);
    ("write_dom", spec [ W.Write_dominated ] 4000);
  ]

(* Tiny sizes, for the self-test. *)
let smoke_spec spec =
  { spec with round_ops = 200; contents = 2; check_accesses = 4_000;
              check_traces = 2; ladder_ops = 100 }

(* --- Statistics ---------------------------------------------------------- *)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quantile = M.quantile

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  a

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

let geomean = function
  | [] -> 0.
  | l ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (List.length l))

(* --- Output -------------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []

(* [~json:false] prints the line but leaves the metric out of the JSON
   result. *)
let emit ?(note = "") ?(json = true) name unit value =
  let value = if Float.is_finite value then value else 0. in
  if json then metrics := (name, value, unit) :: !metrics;
  Printf.printf "%-44s %14.6g %-8s %s\n" name value unit note

let json_line ~correct ~attempted ~failed =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, value, unit) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name value unit)
    (List.rev !metrics);
  Buffer.add_string b "}}";
  Buffer.contents b

(* Every span as one line: id, domain, name, parent, start, end, op. *)
let write_spans path =
  let oc = open_out path in
  let dump slot s =
    for i = 0 to (Array.length s / Probe.span_width) - 1 do
      let b = i * Probe.span_width in
      let op = s.(b + 4) in
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%s\n"
        ((slot lsl 32) lor i)
        slot Probe.span_names.(s.(b)) s.(b + 3) s.(b + 1) s.(b + 2)
        (if op >= 0 then !Probe.op_names.(op) else "-")
    done
  in
  dump Probe.main.Probe.slot (Probe.Buf.to_array Probe.main.Probe.spans);
  List.iter (fun (slot, s) -> dump slot s) (List.rev !M.kept_spans);
  close_out oc

(* --- Harness kernels ----------------------------------------------------- *)

(* Mean cost of [Workload.sample] and [Stats.record] on this workload's
   own distribution, each timed over a fixed number of calls. *)
let harness_kernels spec =
  let (module P) = M.wrap ~sanitized:false (M.find "seq") in
  let module B = Sb7_harness.Benchmark.Make (P) in
  let base = M.config ~scale ~threads:1 ~seed:1 in
  let descs = Array.map B.describe (B.enabled_operations base) in
  let cdf = W.cdf (W.ratios (List.hd spec.phases) descs) in
  let n = 1_000_000 in
  let us = Array.init 4096 (fun i -> float_of_int ((i * 2654435761) land 0xFFFFF) /. 1048576.) in
  let t0 = Probe.now_ns () in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + W.sample cdf us.(i land 4095)
  done;
  let sample_ns = float_of_int (Probe.now_ns () - t0) /. float_of_int n in
  ignore (Sys.opaque_identity !acc);
  let st = Sb7_harness.Stats.create ~ops:(Array.length descs) ~histograms:false in
  let t0 = Probe.now_ns () in
  for i = 0 to n - 1 do
    Sb7_harness.Stats.record st ~op:(W.sample cdf us.(i land 4095))
      ~latency_s:1e-5 ~ok:(i land 7 <> 0)
  done;
  let record_ns =
    (float_of_int (Probe.now_ns () - t0) /. float_of_int n) -. sample_ns
  in
  (sample_ns, record_ns)

(* --- The run -------------------------------------------------------------- *)

let run ~spec ~seed ~seconds ~traced ~smoke ~spans =
  let threads = threads ~traced in
  let members =
    List.map
      (M.start_member ~scale ~threads ~phases:spec.phases
         ~round_ops:(spec.round_ops / threads) ~contents:spec.contents ~seed)
      panel
  in
  List.iter (fun (m : M.instance) -> m.M.warm ()) members;
  let checks =
    List.map
      (fun (s, k) ->
        M.start_check ~scale ~phases:spec.phases
          ~accesses:(k * spec.check_accesses) ~traces:spec.check_traces ~seed
          ~traced s)
      checked
  in
  (* Cycles: one round of every member and one timed analysis of every
     check trace, in an order rotated each cycle, until [seconds] have
     passed and every content has run. In traced mode every other sweep
     over the contents records spans. *)
  let steps =
    Array.of_list
      (List.map (fun (m : M.instance) k -> m.M.round k) members
      @ List.map (fun (c : M.check_instance) _ -> c.M.analyze_once ()) checks)
  in
  let n_steps = Array.length steps in
  let min_cycles = spec.contents * if traced then 2 else 1 in
  Probe.sticky := true;
  let t0 = Probe.now_ns () and k = ref 0 in
  while !k < min_cycles || M.seconds_since t0 < seconds do
    for i = 0 to n_steps - 1 do
      let step = steps.((i + !k) mod n_steps) in
      Probe.tracing := traced && (!k / spec.contents) land 1 = 1;
      step !k;
      Probe.tracing := false
    done;
    incr k
  done;
  Probe.sticky := false;
  let members = List.map (fun (m : M.instance) -> m.M.finish ()) members in
  let checks = List.map (fun (c : M.check_instance) -> c.M.finish_check ()) checks in
  let member s = List.find (fun m -> String.equal m.M.strategy s) members in
  let check s = List.find (fun c -> String.equal c.M.c_strategy s) checks in
  let rate s = (member s).M.rate in
  let problems =
    List.concat_map (fun m -> m.M.problems) members
    @ List.concat_map (fun c -> c.M.c_problems) checks
  in
  let latency_problems = ref [] in
  let p99 s =
    let m = member s in
    (* Each round's p99 needs at least ten samples beyond it. *)
    if m.M.min_samples < 1000 && not smoke then
      latency_problems :=
        Printf.sprintf "%s: a round with %d latency samples, fewer than 1000"
          s m.M.min_samples
        :: !latency_problems;
    (m.M.p99_ms, m.M.p50_ms, m.M.min_samples)
  in
  let per_content s =
    Printf.sprintf "fastest of %d rounds per content, %d contents"
      ((member s).M.rounds / spec.contents) spec.contents
  in
  if not traced then begin
    let builds = List.concat_map (fun m -> m.M.setup_s) members in
    emit "setup_s" "s" (median builds)
      ~note:(Printf.sprintf "median of %d builds" (List.length builds));
    emit "live_mb" "MB"
      (List.fold_left (fun a m -> Float.max a m.M.live_mb) 0. members);
    List.iter
      (fun s -> emit ("ops_per_s." ^ s) "op/s" (rate s) ~note:(per_content s))
      panel;
    List.iter
      (fun s ->
        let v, p50, n = p99 s in
        (* Printed, not part of the result: over ten seeds the p99s of
           write_dom spread 24-35%, wider than any bound they could have. *)
        emit ("p99_ms." ^ s) "ms" v ~json:false
          ~note:(Printf.sprintf "lowest of %s; p50 %.4f ms; >= %d samples a round"
                   (per_content s) p50 n))
      panel;
    List.iter
      (fun s ->
        let c = check s in
        emit ("check_s." ^ s) "s" c.M.check_s
          ~note:(Printf.sprintf "%d traces, fastest of %d each, %d events"
                   spec.check_traces c.M.repeats c.M.events))
      checked_names
  end
  else begin
    (* Rungs (a) seq and (b) each STM, one domain, one fixed sequence;
       rung (a) twice, so its counts can be checked for exact repeats. *)
    let rung s =
      M.run_rung ~scale ~phases:spec.phases ~ops:spec.ladder_ops
        ~seed s
    in
    let seq = rung "seq" and seq_again = rung "seq" in
    let count_problems =
      if seq.M.reads <> seq_again.M.reads || seq.M.writes <> seq_again.M.writes
      then [ "core.reads_per_op/writes_per_op differ between same-seed runs" ]
      else []
    in
    let one = List.map (fun s -> (s, rung s)) stms in
    let sample_ns, record_ns = harness_kernels spec in
    emit "harness.sample_ns" "ns" sample_ns;
    emit "harness.record_ns" "ns" record_ns;
    List.iter
      (fun s ->
        emit ("harness.imbalance." ^ s) "ratio" (median (member s).M.imbalance))
      panel;
    let attempted = List.fold_left (fun a m -> a + m.M.attempted) 0 members in
    let spec_failed = List.fold_left (fun a m -> a + m.M.spec_failed) 0 members in
    emit "harness.spec_fail_share" "ratio" (fratio spec_failed attempted);
    List.iter
      (fun s ->
        let a = (member s).M.traced in
        Array.iteri
          (fun c key ->
            let d = sorted_copy (Probe.Buf.to_array a.M.atomic_ns.(c)) in
            emit
              (Printf.sprintf "runtime.atomic_us.%s.%s" key s)
              "us"
              (float_of_int (quantile d 0.5) *. 1e-3))
          Probe.category_keys)
      panel;
    List.iter
      (fun s ->
        let a = (member s).M.traced in
        emit ("runtime.attempts_per_op." ^ s) "count/op" (fratio a.M.attempts (M.atomics a)))
      panel;
    List.iter
      (fun s ->
        let cs = (member s).M.counters in
        emit ("runtime.ro_share." ^ s) "ratio"
          (fratio (M.counter cs "ro_zero_log_commits") (M.counter cs "commits")))
      stms;
    let t = member "tournament" in
    emit "runtime.tournament.switches" "count"
      (float_of_int (M.counter t.M.counters "substrate_switches"));
    emit "runtime.tournament.epoch_decisions" "count"
      (float_of_int (M.counter t.M.counters "epoch_decisions"));
    let best_static =
      List.fold_left
        (fun a s -> if s = "tournament" then a else Float.max a (rate s))
        0. stms
    in
    emit "runtime.tournament.best_static_ratio" "ratio"
      (ratio (rate "tournament") best_static);
    let md = (member "medium").M.counters in
    emit "runtime.lock_acqs_per_op.medium" "count/op"
      (fratio
         (M.counter md "read_acquisitions" + M.counter md "write_acquisitions")
         (M.counter md "commits"));
    let mean_attempt (a : M.agg) = fratio a.M.attempt_total_ns (M.atomics a) in
    List.iter
      (fun s ->
        let m = member s in
        let a = m.M.traced and cs = m.M.counters in
        let one = List.assoc s one in
        emit ("stm.commit_us." ^ s) "us"
          (fratio (a.M.atomic_total_ns - a.M.attempt_total_ns) (M.atomics a) *. 1e-3);
        emit ("stm.access_overhead." ^ s) "ratio"
          (ratio (mean_attempt one) (mean_attempt seq));
        emit ("stm.contention." ^ s) "ratio"
          (ratio (mean_attempt a) (mean_attempt one));
        emit ("stm.abort_ratio." ^ s) "ratio"
          (fratio (M.counter cs "aborts") (M.counter cs "commits"));
        emit ("stm.salvage_ratio." ^ s) "ratio"
          (fratio (M.counter cs "partial_aborts") (M.counter cs "aborts"));
        emit ("stm.validation_steps_per_commit." ^ s) "count/commit"
          (fratio (M.counter cs "validation_steps") (M.counter cs "commits"));
        emit ("stm.read_set_per_commit." ^ s) "count/commit"
          (fratio (M.counter cs "read_set_entries") (M.counter cs "commits"));
        emit ("stm.minor_words_per_commit." ^ s) "words/commit"
          (median m.M.minor_words_per_commit))
      stms;
    Array.iteri
      (fun c key ->
        let d = sorted_copy (Probe.Buf.to_array seq.M.attempt_ns.(c)) in
        emit ("core.attempt_us." ^ key) "us" (float_of_int (quantile d 0.5) *. 1e-3))
      Probe.category_keys;
    Array.iteri
      (fun c key ->
        emit ("core.reads_per_op." ^ key) "count/op" (fratio seq.M.reads.(c) seq.M.ops.(c)))
      Probe.category_keys;
    Array.iteri
      (fun c key ->
        emit ("core.writes_per_op." ^ key) "count/op" (fratio seq.M.writes.(c) seq.M.ops.(c)))
      Probe.category_keys;
    List.iter
      (fun m -> emit ("core.setup_s." ^ m.M.strategy) "s" (median m.M.setup_s))
      members;
    List.iter (fun m -> emit ("core.live_mb." ^ m.M.strategy) "MB" m.M.live_mb) members;
    List.iter
      (fun s -> emit ("sanitize.events." ^ s) "count" (float_of_int (check s).M.events))
      checked_names;
    List.iter
      (fun s ->
        let c = check s in
        emit ("sanitize.check_events_per_s." ^ s) "events/s"
          (ratio (float_of_int c.M.events) c.M.check_s))
      checked_names;
    List.iter
      (fun s ->
        let c = check s in
        emit ("sanitize.record_ratio." ^ s) "ratio"
          (ratio c.M.sanitized_rate (Option.value c.M.plain_rate ~default:0.)))
      checked_names;
    emit "trace.overhead" "ratio"
      (geomean
         (List.map (fun m -> ratio m.M.traced_rate m.M.rate) members));
    latency_problems := count_problems @ !latency_problems;
    Option.iter write_spans spans
  end;
  let problems = problems @ !latency_problems in
  List.iter (fun p -> prerr_endline ("problem: " ^ p)) problems;
  (* A member that fails a check counts all its operations as failed. *)
  let failed_of strategy n =
    if List.exists (fun p -> String.starts_with ~prefix:(strategy ^ ":") p) problems
    then n
    else 0
  in
  let attempted =
    List.fold_left (fun a m -> a + m.M.attempted) 0 members
    + List.fold_left (fun a c -> a + c.M.c_attempted) 0 checks
  in
  let failed =
    List.fold_left (fun a m -> a + failed_of m.M.strategy m.M.attempted) 0 members
    + List.fold_left (fun a c -> a + failed_of c.M.c_strategy c.M.c_attempted) 0 checks
  in
  (problems = [], attempted, failed)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false and spans = ref "" in
  let flambda = ref "unknown" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny sizes (self-test)");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
      ("--flambda", Arg.Set_string flambda, "BOOL provenance: compiler flambda");
      ("--commit", Arg.Set_string commit, "ID provenance: source revision");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sb7perf --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.assoc_opt !workload workloads with
    | Some s -> if !smoke then smoke_spec s else s
    | None ->
      Printf.eprintf "unknown workload %S (expected %s)\n" !workload
        (String.concat " | " (List.map fst workloads));
      exit 2
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "# provenance: host_cores=%d ocaml=%s flambda=%s minor_heap_words=%d \
     scale=%s domains=%d ops_per_domain=%d seed=%d commit=%s workload=%s \
     trace=%d\n"
    cores Sys.ocaml_version !flambda (Gc.get ()).Gc.minor_heap_size scale
    (threads ~traced:(!trace = 1))
    (spec.round_ops / threads ~traced:(!trace = 1))
    !seed !commit !workload !trace;
  if cores < 2 then begin
    let w =
      "WARNING: fewer than 2 cores: these numbers are not evidence of \
       parallel behaviour"
    in
    print_endline ("# " ^ w);
    prerr_endline w
  end;
  let correct, attempted, failed =
    run ~spec ~seed:!seed ~seconds:!seconds
      ~traced:(!trace = 1) ~smoke:!smoke
      ~spans:(if !spans = "" then None else Some !spans)
  in
  print_endline (json_line ~correct ~attempted ~failed);
  exit (if correct then 0 else 1)
