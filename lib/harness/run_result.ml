(** The outcome of one benchmark run, independent of the runtime
    functor so reports and bench harnesses can treat all strategies
    uniformly. *)

type t = {
  runtime_name : string;
  workload : Workload.kind;
  mix : Workload.mix;
  threads : int;
  requested_s : float;
  elapsed_s : float;
  ops : Workload.op_desc array;
  expected : float array; (* expected per-op ratios, parallel to [ops] *)
  stats : Stats.t; (* merged across threads, parallel to [ops] *)
  per_domain_successes : int array;
      (* successful operations per worker domain, in spawn order *)
  runtime_counters : (string * int) list;
  scale_name : string;
  index_kind : Sb7_core.Index_intf.kind;
  long_traversals : bool;
  structure_mods : bool;
  reduced_ops : bool;
  minor_collections : int;
      (* Gc.quick_stat delta over the measured window, observed from
         the coordinating domain — a process-wide allocation-pressure
         proxy, not an exact per-domain count *)
  major_collections : int;
  minor_words : float;
      (* Gc.quick_stat minor_words delta over the same window: words
         allocated on the minor heaps, the direct measure the
         collection counts only proxy (a bigger minor heap lowers
         minor_collections without changing allocation at all) *)
  minor_heap_words : int;
      (* minor heap size (words) the run executed under, so recorded
         GC pressure can be interpreted (and the --minor-heap knob
         audited) from the result alone *)
  seed : int;
  sanitizer : Sb7_sanitize.Checker.verdict option;
      (* None when the run was not sanitized *)
}

(** Value of a named runtime counter, 0 when the runtime does not
    report it (lock runtimes report no STM counters). *)
let counter t name =
  Option.value (List.assoc_opt name t.runtime_counters) ~default:0

(** Aborted attempts over all attempts, [aborts / (commits + aborts)]
    from the runtime counters; 0 when the run recorded neither. *)
let abort_rate t =
  let commits = counter t "commits" and aborts = counter t "aborts" in
  if commits + aborts = 0 then 0.
  else float_of_int aborts /. float_of_int (commits + aborts)

(* Tournament champion-occupancy breakdown: the meta-runtime exports
   one ["champion_epochs_<substrate>"] counter per substrate; strip
   the prefix and keep declaration order. Empty for every
   single-substrate runtime. *)
let champion_occupancy t =
  let prefix = "champion_epochs_" in
  List.filter_map
    (fun (k, v) ->
      if String.starts_with ~prefix k then
        Some (String.sub k (String.length prefix) (String.length k - String.length prefix), v)
      else None)
    t.runtime_counters

let op_index t code =
  let found = ref None in
  Array.iteri (fun i (o : Workload.op_desc) -> if String.equal o.code code then found := Some i) t.ops;
  !found

(** Successful operations per second. *)
let throughput t =
  if t.elapsed_s <= 0. then 0.
  else float_of_int (Stats.total_successes t.stats) /. t.elapsed_s

(** Commit imbalance across worker domains: max per-domain successes
    over the mean. 1.0 means perfectly even progress; values well above
    1.0 mean some domains starved (backoff unfairness, lock convoys, a
    domain parked on a long traversal). Defined as 1.0 for runs with at
    most one domain or no successes at all. *)
let commit_imbalance t =
  let n = Array.length t.per_domain_successes in
  if n <= 1 then 1.0
  else begin
    let total = Array.fold_left ( + ) 0 t.per_domain_successes in
    if total = 0 then 1.0
    else begin
      let mx = Array.fold_left max 0 t.per_domain_successes in
      float_of_int mx /. (float_of_int total /. float_of_int n)
    end
  end

(* GC pressure normalized per 1000 committed operations, so runs of
   different lengths and throughputs compare directly; 0 when nothing
   committed. *)
let per_1k_commits t n =
  let c = Stats.total_successes t.stats in
  if c = 0 then 0. else 1000. *. float_of_int n /. float_of_int c

(** Minor (resp. major) collections per 1000 successful operations
    during the measured window. *)
let minor_gc_per_1k_commits t = per_1k_commits t t.minor_collections

let major_gc_per_1k_commits t = per_1k_commits t t.major_collections

(** Minor-heap words allocated per successful operation during the
    measured window — the allocation budget the descriptor pool and
    SoA logs are sized against; 0 when nothing committed. *)
let minor_words_per_commit t =
  let c = Stats.total_successes t.stats in
  if c = 0 then 0. else t.minor_words /. float_of_int c

(** Started (successful or failed) operations per second. *)
let attempts_throughput t =
  if t.elapsed_s <= 0. then 0.
  else float_of_int (Stats.total_attempts t.stats) /. t.elapsed_s

(** Maximum observed latency of one operation, in ms (0 if it never
    completed successfully). *)
let max_latency_ms t ~code =
  match op_index t code with
  | None -> 0.
  | Some i -> t.stats.Stats.per_op.(i).Stats.max_latency_ms

let successes t ~code =
  match op_index t code with
  | None -> 0
  | Some i -> t.stats.Stats.per_op.(i).Stats.successes

(** Per-category aggregate: successes, failures, attempts, max latency. *)
let category_totals t category =
  let successes = ref 0 and failures = ref 0 and max_ms = ref 0. in
  Array.iteri
    (fun i (o : Workload.op_desc) ->
      if Sb7_core.Category.equal o.category category then begin
        let s = t.stats.Stats.per_op.(i) in
        successes := !successes + s.Stats.successes;
        failures := !failures + s.Stats.failures;
        if s.Stats.max_latency_ms > !max_ms then max_ms := s.Stats.max_latency_ms
      end)
    t.ops;
  (!successes, !failures, !max_ms)
