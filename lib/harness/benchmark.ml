(** The benchmark driver: builds the structure, spawns the worker
    domains, mixes operations according to the workload ratios and
    collects per-thread statistics — the multi-threaded core the paper
    describes in §4 ("threads are uniform: each picks its next operation
    randomly from the whole pool"). *)

module Category = Sb7_core.Category
module Parameters = Sb7_core.Parameters
module Index_intf = Sb7_core.Index_intf

type config = {
  threads : int;
  duration_s : float;
  warmup_s : float;
      (** run (and discard) this much benchmark work before the measured
          window, letting caches, allocator and lock queues settle *)
  max_ops : int option;
      (** stop after this many operations per thread instead of (or in
          addition to) the time limit; used by tests *)
  workload : Workload.kind;
  mix : Workload.mix;
      (** relative category weights; Table 2 defaults unless overridden *)
  long_traversals : bool;
  structure_mods : bool;
  reduced_ops : bool;  (** restrict to the paper's §5 reduced set (Fig. 6) *)
  only_op : string option;
      (** run a single named operation in isolation (OO7-style latency
          measurement) instead of the workload mix *)
  dispatch : Dispatch.mode;
      (** how operations are distributed over worker domains: every
          worker samples the full mix, or workers get disjoint groups
          from the static conflict matrix (see {!Dispatch}) *)
  scale : Parameters.t;
  scale_name : string;
  index_kind : Index_intf.kind;
  seed : int;
  histograms : bool;
  sanitize : bool;
      (** record event traces during the measured window and run the
          {!Sb7_sanitize.Checker} analyses on them; requires the runtime
          to be wrapped in {!Sb7_sanitize.Sanitize.Make} (the harness
          flags an un-instrumented runtime as a finding) *)
  minor_heap : int option;
      (** size (in words) each worker domain sets its minor arena to on
          startup. [Gc.set minor_heap_size] only affects the calling
          domain — spawned domains start at the runtime default — so the
          resize must happen inside every worker, not once in the
          parent. The size in effect is recorded in the result so the
          GC-pressure columns stay interpretable. *)
}

(* Seeded footprint-escape bugs for the {!Fixture} table: when armed,
   the worker injects one out-of-region access into every execution of
   a chosen operation — a read of the manual's text during OP2 (whose
   static may-read set is {indexes, atomic-parts}) or a write of it
   during OP9 (may-write {atomic-parts}). The injection lives here in
   the harness, outside the sync-free core the footprint analysis
   scans, so the static table stays honest and the dynamic replay must
   catch the divergence on its own. *)
module Unsafe = struct
  let escape_read = ref false
  let escape_write = ref false
  let read_escape () = escape_read := true
  let write_escape () = escape_write := true

  let reset () =
    escape_read := false;
    escape_write := false
end

let default_config =
  {
    threads = 1;
    duration_s = 10.;
    warmup_s = 0.;
    max_ops = None;
    workload = Workload.Read_dominated;
    mix = Workload.default_mix;
    long_traversals = true;
    structure_mods = true;
    reduced_ops = false;
    only_op = None;
    dispatch = Dispatch.Uniform;
    scale = Parameters.medium;
    scale_name = "medium";
    index_kind = Index_intf.Avl;
    seed = 42;
    histograms = false;
    sanitize = false;
    minor_heap = None;
  }

(* The verdict on whatever the trace buffers hold: the checker's
   analyses plus the replay against the static footprint table. *)
let trace_verdict runtime_name =
  let module Checker = Sb7_sanitize.Checker in
  Sb7_sanitize.Trace.disable ();
  let dump = Sb7_sanitize.Trace.dump () in
  Checker.with_footprint
    (Checker.analyze ~profile:(Checker.profile_of_runtime runtime_name) dump)
    (Checker.footprint ~table:Sb7_core.Op_footprint.masks dump)

let apply_minor_heap = function
  | None -> ()
  | Some words -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  module I = Sb7_core.Instance.Make (R)
  module Sb_random = Sb7_core.Sb_random

  let enabled_operations config : I.Operation.t array =
    match config.only_op with
    | Some code -> (
      match I.Operation.by_code code with
      | Some op -> [| op |]
      | None -> invalid_arg (Printf.sprintf "unknown operation %S" code))
    | None ->
      I.Operation.all
      |> List.filter (fun (op : I.Operation.t) ->
             (config.long_traversals
             || not (Category.equal op.category Category.Long_traversal))
             && (config.structure_mods
                || not
                     (Category.equal op.category
                        Category.Structure_modification))
             && ((not config.reduced_ops) || I.Operation.in_reduced_set op))
      |> Array.of_list

  let describe (op : I.Operation.t) : Workload.op_desc =
    {
      code = op.code;
      category = op.category;
      read_only = I.Operation.read_only op;
    }

  let build_setup config =
    I.Setup.create ~index_kind:config.index_kind ~seed:config.seed
      config.scale

  (* --- Sanitizer structural sweep ---------------------------------- *)

  (* Observable cardinalities of the shared structure: the six Table 1
     indexes plus the free counts of the four id pools. Captured while
     tracing is off (reads emit no events). *)
  let cardinalities (setup : I.Setup.t) =
    let idx name (ix : (_, _) Index_intf.t) = (name, ix.Index_intf.size ()) in
    let pool name p = (name, I.Setup.Pool.available p) in
    [
      idx "ap-id-index" setup.I.Setup.ap_id_index;
      idx "ap-date-index" setup.I.Setup.ap_date_index;
      idx "cp-id-index" setup.I.Setup.cp_id_index;
      idx "doc-title-index" setup.I.Setup.doc_title_index;
      idx "ba-id-index" setup.I.Setup.ba_id_index;
      idx "ca-id-index" setup.I.Setup.ca_id_index;
      pool "ap-pool-free" setup.I.Setup.ap_pool;
      pool "cp-pool-free" setup.I.Setup.cp_pool;
      pool "ba-pool-free" setup.I.Setup.ba_pool;
      pool "ca-pool-free" setup.I.Setup.ca_pool;
    ]

  (* Post-run sweep: the live structure must satisfy every benchmark
     invariant, and if the trace shows no committed structural
     transaction, the cardinalities must not have moved at all. *)
  let structural_sweep ~(verdict : Sb7_sanitize.Checker.verdict) ~pre
      ~successes setup =
    let findings = ref [] in
    if successes > 0 && verdict.Sb7_sanitize.Checker.attempts = 0 then
      findings :=
        Printf.sprintf
          "no transaction events recorded although %d operations \
           succeeded: the runtime is not instrumented (wrap it in \
           Sanitize.Make, as Driver does for sanitized runs)"
          successes
        :: !findings;
    List.iter
      (fun v -> findings := ("invariant violated: " ^ v) :: !findings)
      (I.Invariants.check setup);
    if verdict.Sb7_sanitize.Checker.structural_commits = 0 then
      List.iter2
        (fun (name, before) (name', after) ->
          assert (String.equal name name');
          if before <> after then
            findings :=
              Printf.sprintf
                "%s changed %d -> %d although no structural transaction \
                 committed"
                name before after
              :: !findings)
        pre (cardinalities setup);
    List.rev !findings

  (* Spawn is sequential (and on a loaded machine, slow): without a
     barrier the first domain measures alone while the last is still
     being forked, which skews multi-domain throughput and the
     imbalance metric. Workers check in on [ready] and spin on [go];
     the main domain releases them together and only then starts the
     clock. The occasional micro-sleep keeps the spin from starving
     the still-spawning main domain when cores are oversubscribed. *)
  let await_start ~ready ~go =
    ignore (Atomic.fetch_and_add ready 1);
    let spins = ref 0 in
    while not (Atomic.get go) do
      incr spins;
      if !spins land 1023 = 0 then Unix.sleepf 0.0002
      else Domain.cpu_relax ()
    done

  (* The {!Unsafe} escapes, applied inside the operation's own atomic
     block so the access is attributed to the op by the trace. The
     rewrite writes the value back unchanged: semantically a no-op, but
     a region violation all the same. *)
  let inject_escape (op : I.Operation.t) (setup : I.Setup.t) =
    let man_text =
      lazy setup.I.Setup.module_.I.Setup.T.mod_manual.I.Setup.T.man_text
    in
    if !Unsafe.escape_read && String.equal op.code "OP2" then
      ignore (Sys.opaque_identity (R.read (Lazy.force man_text)));
    if !Unsafe.escape_write && String.equal op.code "OP9" then
      let tv = Lazy.force man_text in
      R.write tv (R.read tv)

  (* One worker thread: run operations until the stop flag rises (and,
     in max_ops mode, at most [budget] operations). *)
  let worker ~(ops : I.Operation.t array) ~cdf ~setup ~stop ~budget ~seed
      ~histograms =
    let rng = Sb_random.create ~seed in
    let stats = Stats.create ~ops:(Array.length ops) ~histograms in
    let uniform () =
      float_of_int (Sb_random.int rng 1_000_000) /. 1_000_000.
    in
    let executed = ref 0 in
    let within_budget () =
      match budget with
      | None -> true
      | Some b -> !executed < b
    in
    while (not (Atomic.get stop)) && within_budget () do
      let i = Workload.sample cdf (uniform ()) in
      let op = ops.(i) in
      let t0 = Unix.gettimeofday () in
      let ok =
        match
          R.atomic ~profile:op.profile (fun () ->
              inject_escape op setup;
              op.run rng setup)
        with
        | (_ : int) -> true
        | exception Sb7_core.Common.Operation_failed _ -> false
      in
      let latency = Unix.gettimeofday () -. t0 in
      Stats.record stats ~op:i ~latency_s:latency ~ok;
      incr executed
    done;
    stats

  let run ?setup config : Run_result.t =
    assert (config.threads >= 1);
    (* The main domain sizes its arena too, both so single-threaded
       setup/driver allocation runs under the requested regime and so
       the [minor_heap_words] read below reports the configured size. *)
    apply_minor_heap config.minor_heap;
    (* Per-domain backoff RNGs fold this in (see Backoff.for_domain),
       so contention behaviour is reproducible per seed without domains
       spinning in lockstep. *)
    Sb7_stm.Backoff.set_run_seed config.seed;
    let ops = enabled_operations config in
    let descs = Array.map describe ops in
    let expected = Workload.ratios ~mix:config.mix config.workload descs in
    let cdf = Workload.cdf expected in
    (* Conflict-aware dispatch: workers sample disjoint operation
       groups chosen from the static conflict matrix instead of the
       full mix (single-domain runs have nothing to separate). *)
    let groups =
      match config.dispatch with
      | Dispatch.Conflict_aware when config.threads > 1 ->
        Some
          (Dispatch.partition ~domains:config.threads ~descs ~ratios:expected)
      | Dispatch.Conflict_aware | Dispatch.Uniform -> None
    in
    let conflict_pairs =
      Dispatch.conflict_pairs ?groups ~domains:config.threads descs
    in
    let cdf_for worker =
      match groups with
      | None -> cdf
      | Some groups ->
        Workload.cdf (Dispatch.weights_for ~worker ~groups ~ratios:expected)
    in
    (* Stale region notes from an earlier run's structure would collide
       with this run's recycled sids (see Trace.reset_notes). Cleared
       before the structure is built so its notes are the only ones. *)
    if config.sanitize && Option.is_none setup then
      Sb7_sanitize.Trace.reset_notes ();
    let setup =
      match setup with
      | Some s -> s
      | None -> build_setup config
    in
    (* Spawn the workers and return once every one waits at the start
       barrier; they run when [go] is set, until [stop] or [budget]. *)
    let spawn_ready ~stop ~go ~budget ~stride ~histograms =
      let ready = Atomic.make 0 in
      let domains =
        List.init config.threads (fun i ->
            Domain.spawn (fun () ->
                apply_minor_heap config.minor_heap;
                await_start ~ready ~go;
                worker ~ops ~cdf:(cdf_for i) ~setup ~stop ~budget
                  ~seed:(config.seed + ((i + 1) * stride))
                  ~histograms))
      in
      while Atomic.get ready < config.threads do
        Domain.cpu_relax ()
      done;
      domains
    in
    (* Warmup phase: same worker loop, results discarded. Skipped in
       max_ops mode, which exists for deterministic tests. *)
    if config.warmup_s > 0. && config.max_ops = None then begin
      let stop = Atomic.make false and go = Atomic.make false in
      let warm =
        spawn_ready ~stop ~go ~budget:None ~stride:104729 ~histograms:false
      in
      Atomic.set go true;
      Unix.sleepf config.warmup_s;
      Atomic.set stop true;
      List.iter (fun d -> ignore (Domain.join d)) warm
    end;
    R.reset_stats ();
    (* Tracing covers exactly the measured window: warmup and setup
       writes carry version id 0 and need no events. Cardinalities are
       captured before enabling so the capture itself stays silent. *)
    let pre_cardinalities =
      if config.sanitize then begin
        Sb7_sanitize.Trace.reset ();
        Some (cardinalities setup)
      end
      else None
    in
    if config.sanitize then Sb7_sanitize.Trace.enable ();
    let stop = Atomic.make false and go = Atomic.make false in
    let domains =
      spawn_ready ~stop ~go ~budget:config.max_ops ~stride:7919
        ~histograms:config.histograms
    in
    (* Clock starts when every domain is released, not when the first
       one was spawned. GC counters bracket the same window so the
       per-1k-commits pressure columns cover exactly the measured
       work. *)
    let gc0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    Atomic.set go true;
    (match config.max_ops with
    | Some _ -> () (* threads stop on their own budget *)
    | None ->
      Unix.sleepf config.duration_s;
      Atomic.set stop true);
    let parts = List.map Domain.join domains in
    let elapsed = Unix.gettimeofday () -. t0 in
    let gc1 = Gc.quick_stat () in
    let stats =
      Stats.merge ~ops:(Array.length ops) ~histograms:config.histograms parts
    in
    let sanitizer =
      match pre_cardinalities with
      | None -> None
      | Some pre ->
        let verdict = trace_verdict R.name in
        let structural =
          structural_sweep ~verdict ~pre
            ~successes:(Stats.total_successes stats)
            setup
        in
        Some (Sb7_sanitize.Checker.with_structural verdict structural)
    in
    {
      runtime_name = R.name;
      workload = config.workload;
      mix = config.mix;
      threads = config.threads;
      requested_s = config.duration_s;
      elapsed_s = elapsed;
      ops = descs;
      expected;
      stats;
      per_domain_successes =
        Array.of_list (List.map Stats.total_successes parts);
      runtime_counters = R.stats ();
      scale_name = config.scale_name;
      index_kind = config.index_kind;
      long_traversals = config.long_traversals;
      structure_mods = config.structure_mods;
      reduced_ops = config.reduced_ops;
      dispatch = config.dispatch;
      conflict_pairs;
      minor_collections =
        gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_collections =
        gc1.Gc.major_collections - gc0.Gc.major_collections;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      minor_heap_words = (Gc.get ()).Gc.minor_heap_size;
      seed = config.seed;
      sanitizer;
    }
end
