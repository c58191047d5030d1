(* Running one strategy of a workload: the panel member (fresh
   structure, warm-up, measured rounds), the sanitized check run, and
   the 1-domain ladder run. Every run goes through the public entry
   points: [Benchmark.Make(R).run ~setup], [Setup.create] (via
   [build_setup]), [R.stats], [Trace] and [Checker]. *)

module B0 = Sb7_harness.Benchmark
module W = Sb7_harness.Workload
module RR = Sb7_harness.Run_result
module Stats = Sb7_harness.Stats
module Trace = Sb7_sanitize.Trace
module Checker = Sb7_sanitize.Checker

let seconds_since t0 = float_of_int (Probe.now_ns () - t0) *. 1e-9

let find name =
  match Sb7_runtime.Registry.find name with
  | Ok m -> m
  | Error e -> failwith e

let wrap ~sanitized (module R : Sb7_runtime.Runtime_intf.S) :
    (module Sb7_runtime.Runtime_intf.S) =
  if sanitized then (module Probe.Make (Sb7_sanitize.Sanitize.Make (R)))
  else (module Probe.Make (R))

let config ~scale ~threads ~seed =
  match Sb7_core.Parameters.of_string scale with
  | Error e -> failwith e
  | Ok params ->
    { B0.default_config with threads; scale = params; scale_name = scale; seed }

(* Seed of phase [j] of round content [c]: the same for every member, so
   members run the same operation sequences. *)
let round_seed seed c j = (seed * 1_000_003) + (c * 64) + j

(* --- Span aggregates ---------------------------------------------------- *)

type agg = {
  atomic_ns : Probe.Buf.t array;  (** per category *)
  attempt_ns : Probe.Buf.t array;  (** per category *)
  mutable attempts : int;
  mutable atomic_total_ns : int;
  mutable attempt_total_ns : int;
  reads : int array;  (** per category *)
  writes : int array;
  ops : int array;  (** traced atomics per category *)
}

let new_agg () =
  let per_cat () = Array.init Probe.n_categories (fun _ -> Probe.Buf.create ()) in
  {
    atomic_ns = per_cat ();
    attempt_ns = per_cat ();
    attempts = 0;
    atomic_total_ns = 0;
    attempt_total_ns = 0;
    reads = Array.make Probe.n_categories 0;
    writes = Array.make Probe.n_categories 0;
    ops = Array.make Probe.n_categories 0;
  }

let atomics agg = Array.fold_left ( + ) 0 agg.ops

(* Worker spans of the traced runs, written out when the run ends; the
   file stops growing at [max_kept] ints (about 300 000 spans). The
   metrics come from every span. *)
let kept_spans : (int * int array) list ref = ref []
let kept = ref 0
let max_kept = 1_500_000

let absorb agg (h : Probe.harvest) =
  Array.iteri (fun c n -> agg.reads.(c) <- agg.reads.(c) + n) h.reads_by_cat;
  Array.iteri (fun c n -> agg.writes.(c) <- agg.writes.(c) + n) h.writes_by_cat;
  List.iter
    (fun (_, s) ->
      for i = 0 to (Array.length s / Probe.span_width) - 1 do
        let b = i * Probe.span_width in
        let d = s.(b + 2) - s.(b + 1) and op = s.(b + 4) in
        let c = if op >= 0 then !Probe.op_categories.(op) else 0 in
        if s.(b) = Probe.span_atomic then begin
          Probe.Buf.push agg.atomic_ns.(c) d;
          agg.ops.(c) <- agg.ops.(c) + 1;
          agg.atomic_total_ns <- agg.atomic_total_ns + d
        end
        else if s.(b) = Probe.span_attempt then begin
          Probe.Buf.push agg.attempt_ns.(c) d;
          agg.attempts <- agg.attempts + 1;
          agg.attempt_total_ns <- agg.attempt_total_ns + d
        end
      done)
    h.worker_spans;
  List.iter
    (fun ((_, a) as s) ->
      if !kept + Array.length a <= max_kept then begin
        kept_spans := s :: !kept_spans;
        kept := !kept + Array.length a
      end)
    h.worker_spans

(* --- Members ------------------------------------------------------------ *)

type member = {
  strategy : string;
  setup_s : float list;  (** every build, first (warm-up) one included *)
  live_mb : float;
  rounds : int;  (** untraced rounds run *)
  rate : float;  (** ops/s over each content's fastest untraced round *)
  traced_rate : float;  (** the same over the traced rounds *)
  p99_ms : float;
      (** mean over contents of each content's lowest round p99, taken
          over the round's outermost [atomic]s *)
  p50_ms : float;
  min_samples : int;  (** fewest latency samples in an untraced round *)
  attempted : int;
  spec_failed : int;  (** [Operation_failed], a specified outcome *)
  imbalance : float list;
  minor_words_per_commit : float list;
  counters : (string * int) list;  (** delta over every measured round *)
  traced : agg;
  problems : string list;
}

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let counter cs k = Option.value (List.assoc_opt k cs) ~default:0

let delta c0 c1 = List.map (fun (k, v) -> (k, v - counter c0 k)) c1

let with_trace f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:Trace.disable f

let reachable_mb v = float_of_int (Obj.reachable_words (Obj.repr v)) *. 8e-6

let invariant_problems strategy =
  List.map (fun v -> strategy ^ ": invariant violated: " ^ v)

let counter_problems strategy counters =
  (if counter counters "commits" = 0 then [ strategy ^ ": zero commits" ]
   else [])
  @
  if counter counters "ro_demotions" > 0 then
    [ Printf.sprintf "%s: %d read-only demotions" strategy
        (counter counters "ro_demotions") ]
  else []

let verdict_problems strategy v =
  if Checker.clean v then []
  else [ strategy ^ ": sanitizer verdict not clean\n" ^ Checker.summary v ]

(* A panel member is started (a warm-up on a first structure, then one
   reset) and then driven one round at a time by the caller, which
   interleaves the rounds of all members so that a slow spell of the
   host lands on every member alike. Round [k] runs content
   [k mod contents]: it builds a fresh structure and runs [phases] on it
   in order, [round_ops] operations per domain each, the structure and
   the operations drawn from seeds fixed by the content. The structure modifications shrink the structure as a
   run goes on (within some thousands of operations most base assemblies
   are gone and long traversals get ten times cheaper), so a structure
   that lived through the whole run would make the work drift. At one
   domain a content is the same work every time it runs, so only the
   host adds time to a repeat, and each content's fastest repeat is the
   steadiest estimate of its cost: the member's rate is the contents'
   operations over the sum of their fastest repeats, and its p99 the
   mean of their lowest p99s. Resets that [Benchmark.run] makes after
   the first are skipped while [Probe.sticky] is set, so state such as
   the tournament's champion carries across phases and rounds. *)
type instance = {
  warm : unit -> unit;  (** warm-up on the first structure, then reset *)
  round : int -> unit;  (** run round [k] *)
  finish : unit -> member;
}

let start_member ~scale ~threads ~phases ~round_ops ~contents ~seed strategy :
    instance =
  let (module P) = wrap ~sanitized:false (find strategy) in
  let module B = B0.Make (P) in
  let base = config ~scale ~threads ~seed in
  Probe.register_ops
    (Array.to_list
       (Array.map
          (fun (o : B.I.Operation.t) ->
            (o.profile.Sb7_runtime.Op_profile.op_name, o.category))
          (B.enabled_operations base)));
  (* Timed from a collected heap; collected again after, so the round
     does not pay for marking the new structure. *)
  let build seed =
    Gc.full_major ();
    let t0 = Probe.now_ns () in
    let setup =
      Probe.with_span ~name:Probe.span_setup (fun _ ->
          B.build_setup { base with seed })
    in
    let s = seconds_since t0 in
    Gc.full_major ();
    (setup, s)
  in
  let setup, first_build = build seed in
  let live_mb = reachable_mb setup in
  let builds = ref [ first_build ] in
  let run setup cfg =
    let r =
      Probe.with_span ~name:Probe.span_run (fun id ->
          Probe.run_parent := id;
          B.run ~setup cfg)
    in
    (r, Probe.harvest ())
  in
  let warm () =
    ignore
      (run setup
         {
           base with
           max_ops = Some (2 * round_ops);
           workload = List.hd phases;
           seed = seed + 17;
         });
    P.reset_stats ()
  in
  let attempted = ref 0 and spec_failed = ref 0 in
  let lat = ref [] and imbalance = ref [] and mwpc = ref [] in
  let planned = threads * round_ops * List.length phases in
  let best () = Array.make contents infinity in
  let best_time = best () and best_traced = best () in
  let best_p99 = best () and best_p50 = best () in
  let rounds = ref 0 and min_samples = ref max_int in
  let problems = ref [] in
  (* Counters of one runtime module can be shared with another member
     (the tournament runs the same substrates), so they are summed as
     deltas over this member's own rounds. *)
  let counters = ref [] in
  let agg = new_agg () in
  let phase setup c j kind =
    let cfg =
      { base with max_ops = Some round_ops; workload = kind;
                  seed = round_seed seed c j }
    in
    match run setup cfg with
    | exception e ->
      (* An exception other than [Operation_failed] escaped a worker:
         the member fails, and this phase counts as attempted. *)
      ignore (Probe.harvest ());
      problems :=
        Printf.sprintf "%s: %s" strategy (Printexc.to_string e) :: !problems;
      attempted := !attempted + (threads * round_ops);
      (0, 0.)
    | r, h ->
      let n = Stats.total_attempts r.RR.stats in
      if n <> threads * round_ops then
        problems :=
          Printf.sprintf "%s: %d operations ran, %d planned" strategy n
            (threads * round_ops)
          :: !problems;
      attempted := !attempted + n;
      spec_failed := !spec_failed + Stats.total_failures r.RR.stats;
      imbalance := RR.commit_imbalance r :: !imbalance;
      mwpc := RR.minor_words_per_commit r :: !mwpc;
      if !Probe.tracing then absorb agg h else lat := h.latencies_ns :: !lat;
      (n, r.RR.elapsed_s)
  in
  let keep_min a c x = a.(c) <- Float.min a.(c) x in
  let round k =
    let c = k mod contents in
    let setup, s = build (round_seed seed c 0) in
    builds := s :: !builds;
    let c0 = P.stats () in
    let _, ops, time =
      List.fold_left
        (fun (j, ops, time) kind ->
          let n, t = phase setup c j kind in
          (j + 1, ops + n, time +. t))
        (0, 0, 0.) phases
    in
    let d = delta c0 (P.stats ()) in
    counters :=
      List.map (fun (k, v) -> (k, v + counter !counters k)) d;
    problems :=
      List.rev_append (invariant_problems strategy (B.I.Invariants.check setup))
        !problems;
    (* A round that did not run its planned operations is reported as a
       problem above and left out of the estimates. *)
    let complete = ops = planned in
    if !Probe.tracing then begin
      if complete then keep_min best_traced c time
    end
    else begin
      let a = Array.concat !lat in
      lat := [];
      Array.sort Int.compare a;
      let ms q = float_of_int (quantile a q) *. 1e-6 in
      incr rounds;
      min_samples := min !min_samples (Array.length a);
      if complete then begin
        keep_min best_time c time;
        keep_min best_p99 c (ms 0.99);
        keep_min best_p50 c (ms 0.5)
      end
    end
  in
  let sum = Array.fold_left ( +. ) 0. in
  let rate best = float_of_int (contents * planned) /. sum best in
  let mean a = sum a /. float_of_int contents in
  let finish () =
    {
      strategy;
      setup_s = List.rev !builds;
      live_mb;
      rounds = !rounds;
      rate = rate best_time;
      traced_rate = rate best_traced;
      p99_ms = mean best_p99;
      p50_ms = mean best_p50;
      min_samples = !min_samples;
      attempted = !attempted;
      spec_failed = !spec_failed;
      imbalance = !imbalance;
      minor_words_per_commit = !mwpc;
      counters = !counters;
      traced = agg;
      problems = List.rev !problems @ counter_problems strategy !counters;
    }
  in
  { warm; round; finish }

(* --- Sanitized check ---------------------------------------------------- *)

type check = {
  c_strategy : string;
  check_s : float;
      (** sum over the traces of each trace's fastest [Checker.analyze] *)
  repeats : int;  (** analyses of each trace *)
  events : int;  (** summed over the traces *)
  events_again : int option;  (** traced mode: same-seed rerun *)
  sanitized_rate : float;
  plain_rate : float option;  (** traced mode: same runs, no sanitizer *)
  c_attempted : int;
  c_problems : string list;
}

(* The trace a check analyzes: one domain runs [phases] in turn, [chunk]
   operations at a time, on a fresh structure until the operations have made
   [accesses] tvar reads and writes. With one domain the trace is a
   function of the seed alone. It is sized by accesses, not operations:
   with a fixed operation count, the structure modifications' random
   walk in structure size would set the size of the trace. Benchmark.run
   has no such stop condition, so this loop draws operations itself,
   from the same [Workload] distribution. *)
let chunk = 500

let check_run ~scale ~phases ~accesses ~seed ~sanitized strategy =
  let (module P) = wrap ~sanitized (find strategy) in
  let module B = B0.Make (P) in
  let base = config ~scale ~threads:1 ~seed in
  if sanitized then Trace.reset_notes ();
  let setup =
    Probe.with_span ~name:Probe.span_setup (fun _ -> B.build_setup base)
  in
  let ops = B.enabled_operations base in
  let descs = Array.map B.describe ops in
  let cdfs =
    Array.of_list (List.map (fun k -> W.cdf (W.ratios k descs)) phases)
  in
  let loop () =
    let rng = Sb7_core.Sb_random.create ~seed in
    let n = ref 0 and t0 = Probe.now_ns () in
    while Probe.accesses () < accesses do
      let cdf = cdfs.(!n / chunk mod Array.length cdfs) in
      let u = float_of_int (Sb7_core.Sb_random.int rng 1_000_000) /. 1e6 in
      let op = ops.(W.sample cdf u) in
      (match P.atomic ~profile:op.profile (fun () -> op.run rng setup) with
      | (_ : int) -> ()
      | exception Sb7_core.Common.Operation_failed _ -> ());
      incr n
    done;
    (!n, seconds_since t0)
  in
  let go () =
    Probe.tracing := true;
    let n, time = Domain.join (Domain.spawn loop) in
    Probe.tracing := false;
    ignore (Probe.harvest ());
    (n, time)
  in
  let (n, time), dump =
    if sanitized then
      with_trace (fun () ->
          let r = go () in
          (r, Some (Trace.dump ())))
    else (go (), None)
  in
  (time, n, dump, B.I.Invariants.check setup)

let analyze strategy dump =
  Probe.with_span ~name:Probe.span_check (fun _ ->
      Checker.analyze ~profile:(Checker.profile_of_runtime strategy) dump)

(* A check records [traces] traces, each from its own seed and fresh
   structure with an equal share of the access budget, so that one
   seed's unusual trace moves the sum less. The caller then times
   [Checker.analyze] of every trace once per cycle, interleaved with the
   panel's rounds. The analysis of one trace is the same work every
   time, so only the host adds time to a repeat, and the fastest repeat
   is the steadiest estimate. *)
type check_instance = {
  analyze_once : unit -> unit;
  finish_check : unit -> check;
}

let start_check ~scale ~phases ~accesses ~traces ~seed ~traced
    strategy : check_instance =
  let seeds = List.init traces (fun i -> (seed * 31) + i) in
  let accesses = accesses / traces in
  let record ~sanitized =
    List.map
      (fun seed ->
        check_run ~scale ~phases ~accesses ~seed ~sanitized strategy)
      seeds
  in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let rate runs =
    float_of_int (sum (fun (_, n, _, _) -> n) runs)
    /. List.fold_left (fun a (t, _, _, _) -> a +. t) 0. runs
  in
  let runs = record ~sanitized:true in
  let dumps = List.map (fun (_, _, d, _) -> Option.get d) runs in
  let verdicts = List.map (analyze strategy) dumps in
  let events = sum (fun v -> v.Checker.events) verdicts in
  let fastest = Array.make traces infinity and repeats = ref 0 in
  let analyze_once () =
    List.iteri
      (fun i d ->
        let t0 = Probe.now_ns () in
        ignore (analyze strategy d);
        fastest.(i) <- Float.min fastest.(i) (seconds_since t0))
      dumps;
    incr repeats
  in
  let finish_check () =
    let events_again, plain_rate =
      if traced then
        let again =
          sum
            (fun (_, _, d, _) -> (analyze strategy (Option.get d)).Checker.events)
            (record ~sanitized:true)
        in
        (Some again, Some (rate (record ~sanitized:false)))
      else (None, None)
    in
    {
      c_strategy = strategy;
      check_s = Array.fold_left ( +. ) 0. fastest;
      repeats = !repeats;
      events;
      events_again;
      sanitized_rate = rate runs;
      plain_rate;
      c_attempted = sum (fun (_, n, _, _) -> n) runs;
      c_problems =
        List.concat
          [
            List.concat
              (List.map2
                 (fun (_, _, _, invariants) verdict ->
                   invariant_problems strategy invariants
                   @ verdict_problems strategy verdict)
                 runs verdicts);
            (match events_again with
            | Some e when e <> events ->
              [ Printf.sprintf "%s: sanitize.events %d then %d for one seed"
                  strategy events e ]
            | _ -> []);
          ];
    }
  in
  { analyze_once; finish_check }

(* --- Ladder rung: one domain, traced, fixed operation sequence ---------- *)

let run_rung ~scale ~phases ~ops ~seed strategy =
  let (module P) = wrap ~sanitized:false (find strategy) in
  let module B = B0.Make (P) in
  let base = config ~scale ~threads:1 ~seed in
  let setup =
    Probe.with_span ~name:Probe.span_setup (fun _ -> B.build_setup base)
  in
  let agg = new_agg () in
  Probe.tracing := true;
  List.iteri
    (fun j kind ->
      ignore
        (Probe.with_span ~name:Probe.span_run (fun id ->
             Probe.run_parent := id;
             B.run ~setup
               { base with max_ops = Some ops; workload = kind;
                           seed = round_seed seed 0 j }));
      absorb agg (Probe.harvest ()))
    phases;
  Probe.tracing := false;
  Gc.full_major ();
  agg
