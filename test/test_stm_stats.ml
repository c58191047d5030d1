(* The domain-sharded statistics must aggregate exactly: after joining
   N hammering domains, [snapshot] equals the sum of the per-domain
   tallies (and the max for max_read_set), reset zeroes everything, and
   exited domains' shards are recycled without losing counts. *)

module Stats = Sb7_stm.Stm_stats

let spawn_hammers stats plan =
  let domains =
    List.map (fun work -> Domain.spawn (fun () -> work stats)) plan
  in
  List.iter Domain.join domains

let test_multi_domain_sums () =
  let stats = Stats.create () in
  (* Four domains, each with a distinct tally so a lost or
     double-counted shard is visible in the totals. *)
  let worker ~commits ~aborts ~ro ~steps ~rs_size stats =
    for _ = 1 to commits do
      Stats.record_commit stats ~read_only:false
    done;
    for _ = 1 to aborts do
      Stats.incr stats Stats.aborts
    done;
    for _ = 1 to ro do
      Stats.record_ro_commit stats
    done;
    let s = Stats.shard stats in
    Stats.bump s Stats.validation_steps steps;
    Stats.record_read_set s ~size:rs_size;
    Stats.bump s Stats.dedup_hits commits;
    Stats.bump s Stats.bloom_skips aborts;
    Stats.bump s Stats.extensions ro
  in
  let plan =
    [
      worker ~commits:100 ~aborts:1 ~ro:5 ~steps:10 ~rs_size:7;
      worker ~commits:200 ~aborts:2 ~ro:6 ~steps:20 ~rs_size:31;
      worker ~commits:300 ~aborts:3 ~ro:7 ~steps:30 ~rs_size:13;
      worker ~commits:400 ~aborts:4 ~ro:8 ~steps:40 ~rs_size:2;
    ]
  in
  spawn_hammers stats plan;
  let s = Stats.snapshot stats in
  (* commits = plain commits + ro commits (record_ro_commit bumps both). *)
  Alcotest.(check int) "commits" (1000 + 26) Stats.(get s commits);
  Alcotest.(check int) "aborts" 10 Stats.(get s aborts);
  Alcotest.(check int) "read_only_commits" 26 Stats.(get s read_only_commits);
  Alcotest.(check int) "ro_zero_log_commits" 26
    Stats.(get s ro_zero_log_commits);
  Alcotest.(check int) "validation_steps" 100 Stats.(get s validation_steps);
  Alcotest.(check int) "max_read_set is a max, not a sum" 31
    Stats.(get s max_read_set);
  Alcotest.(check int) "read_set_entries" (7 + 31 + 13 + 2)
    Stats.(get s read_set_entries);
  Alcotest.(check int) "dedup_hits" 1000 Stats.(get s dedup_hits);
  Alcotest.(check int) "bloom_skips" 10 Stats.(get s bloom_skips);
  Alcotest.(check int) "extensions" 26 Stats.(get s extensions)

let test_reset () =
  let stats = Stats.create () in
  spawn_hammers stats
    [
      (fun st ->
        for _ = 1 to 50 do
          Stats.record_commit st ~read_only:true
        done);
      (fun st ->
        Stats.incr st Stats.aborts;
        Stats.record_read_set (Stats.shard st) ~size:9);
    ];
  Alcotest.(check bool) "counts present before reset" true
    (Stats.(get (snapshot stats) commits) > 0);
  Stats.reset stats;
  let s = Stats.snapshot stats in
  Alcotest.(check int) "commits zeroed" 0 Stats.(get s commits);
  Alcotest.(check int) "aborts zeroed" 0 Stats.(get s aborts);
  Alcotest.(check int) "max_read_set zeroed" 0 Stats.(get s max_read_set)

(* Sequential waves of short-lived domains: exited domains' shards are
   returned to a free pool and recycled, so counts accumulate across
   waves instead of leaking one registry entry per domain. *)
let test_counts_survive_domain_exit () =
  let stats = Stats.create () in
  for _ = 1 to 8 do
    spawn_hammers stats
      [
        (fun st ->
          for _ = 1 to 25 do
            Stats.record_commit st ~read_only:false
          done);
      ]
  done;
  Alcotest.(check int) "8 waves x 25 commits" 200
    Stats.(get (snapshot stats) commits)

(* Exhaustiveness: recording every counter once — through the helpers
   that move several together, or directly — must leave every exported
   counter non-zero, and reset must zero them all. A declared counter
   that no record reaches, or that the shard fold, [reset] or
   [to_assoc] skips, fails here instead of silently exporting 0 (or a
   stale value) forever. *)
let test_every_counter_recorded_and_reset () =
  let stats = Stats.create () in
  spawn_hammers stats
    [
      (fun st ->
        let s = Stats.shard st in
        Stats.record_commit st ~read_only:true;
        Stats.incr st Stats.aborts;
        Stats.bump s Stats.validation_steps 3;
        Stats.record_read_set s ~size:5;
        Stats.bump s Stats.dedup_hits 1;
        Stats.bump s Stats.bloom_skips 1;
        Stats.bump s Stats.extensions 1;
        Stats.incr st Stats.clock_reuses;
        Stats.record_ro_commit st;
        Stats.incr st Stats.ro_inline_revalidations;
        Stats.incr st Stats.ro_demotions;
        Stats.bump s Stats.checkpoints 2;
        Stats.record_partial_abort st ~reads_salvaged:4;
        Stats.incr st Stats.resume_failures;
        Stats.incr st Stats.epoch_decisions;
        Stats.incr st Stats.substrate_switches;
        Stats.incr st Stats.descriptor_pool_hits;
        Stats.incr st Stats.descriptor_pool_misses);
    ];
  let live = Stats.to_assoc (Stats.snapshot stats) in
  Alcotest.(check bool) "at least the 21 known counters" true
    (List.length live >= 21);
  List.iter
    (fun (k, v) ->
      if v = 0 then
        Alcotest.failf "counter %s untouched by the all-paths recording" k)
    live;
  Stats.reset stats;
  List.iter
    (fun (k, v) ->
      if v <> 0 then Alcotest.failf "counter %s survived reset with %d" k v)
    (Stats.to_assoc (Stats.snapshot stats))

let () =
  Alcotest.run "stm_stats"
    [
      ( "sharded",
        [
          Alcotest.test_case "multi-domain sums" `Quick test_multi_domain_sums;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "counts survive domain exit" `Quick
            test_counts_survive_domain_exit;
          Alcotest.test_case "every counter recorded and reset" `Quick
            test_every_counter_recorded_and_reset;
        ] );
    ]
