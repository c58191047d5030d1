(* Cross-runtime equivalence: single-threaded, with no contention, no
   transaction ever retries, so every synchronization strategy must
   execute an identical operation sequence identically — same results,
   same failures, same final structure. This pins every registered
   runtime — including the adaptive tournament, whose mid-run champion
   switches must be invisible — to the sequential semantics in one
   sweep. *)

module P = Sb7_core.Parameters
module W = Sb7_harness.Workload
module Rand = Sb7_core.Sb_random

type trace_entry =
  | Ok_result of string * int
  | Failed of string

type outcome = {
  trace : trace_entry list;
  fingerprint : int;
}

module Probe (R : Sb7_runtime.Runtime_intf.S) = struct
  module I = Sb7_core.Instance.Make (R)

  (* A structure fingerprint covering ids, dates, attributes, topology
     and text lengths. *)
  let fingerprint (setup : I.Setup.t) =
    let h = ref 0 in
    let mix v = h := (!h * 31) + v in
    let module T = I.Types in
    setup.I.Setup.ap_id_index.iter (fun id p ->
        mix id;
        mix (R.read p.T.ap_build_date);
        mix (R.read p.T.ap_x);
        mix (R.read p.T.ap_y);
        mix (List.length (R.read p.T.ap_to)));
    setup.I.Setup.cp_id_index.iter (fun id cp ->
        mix id;
        mix (R.read cp.T.cp_build_date);
        mix (List.length (R.read cp.T.cp_used_in));
        mix (Hashtbl.hash (R.read cp.T.cp_document.T.doc_text)));
    setup.I.Setup.ba_id_index.iter (fun id ba ->
        mix id;
        mix (R.read ba.T.ba_build_date);
        mix (List.length (R.read ba.T.ba_components)));
    setup.I.Setup.ca_id_index.iter (fun id ca ->
        mix id;
        mix (R.read ca.T.ca_build_date);
        mix (List.length (R.read ca.T.ca_sub)));
    mix (Hashtbl.hash (R.read setup.I.Setup.module_.T.mod_manual.T.man_text));
    !h

  let run ~ops_count ~seed : outcome =
    let setup = I.Setup.create ~seed P.tiny in
    let all = Array.of_list I.Operation.all in
    let descs =
      Array.map
        (fun (op : I.Operation.t) ->
          {
            W.code = op.code;
            category = op.category;
            read_only = I.Operation.read_only op;
          })
        all
    in
    let cdf = W.cdf (W.ratios W.Read_write descs) in
    let rng = Rand.create ~seed:(seed * 131) in
    let trace = ref [] in
    for _ = 1 to ops_count do
      let u = float_of_int (Rand.int rng 1_000_000) /. 1_000_000. in
      let op = all.(W.sample cdf u) in
      let entry =
        match
          R.atomic ~profile:op.I.Operation.profile (fun () ->
              op.I.Operation.run rng setup)
        with
        | result -> Ok_result (op.I.Operation.code, result)
        | exception Sb7_core.Common.Operation_failed _ ->
          Failed op.I.Operation.code
      in
      trace := entry :: !trace
    done;
    I.Invariants.check_exn setup;
    { trace = List.rev !trace; fingerprint = fingerprint setup }
end

module Probe_seq = Probe (Sb7_runtime.Seq_runtime)
module Probe_coarse = Probe (Sb7_runtime.Coarse_runtime)
module Probe_medium = Probe (Sb7_runtime.Medium_runtime)
module Probe_fine = Probe (Sb7_runtime.Fine_runtime)
module Probe_tl2 = Probe (Sb7_runtime.Tl2_runtime)
module Probe_lsa = Probe (Sb7_runtime.Lsa_runtime)
module Probe_astm = Probe (Sb7_runtime.Astm_runtime)
module Probe_norec = Probe (Sb7_runtime.Norec_runtime)
module Probe_etl = Probe (Sb7_runtime.Etl_runtime)
module Probe_tournament = Probe (Sb7_runtime.Tournament_runtime)

let all_probes =
  [
    ("seq", Probe_seq.run);
    ("coarse", Probe_coarse.run);
    ("medium", Probe_medium.run);
    ("fine", Probe_fine.run);
    ("tl2", Probe_tl2.run);
    ("lsa", Probe_lsa.run);
    ("norec", Probe_norec.run);
    ("etl", Probe_etl.run);
    ("astm", Probe_astm.run);
    ("tournament", Probe_tournament.run);
  ]

let trace_stats trace =
  List.fold_left
    (fun (ok, failed) -> function
      | Ok_result _ -> (ok + 1, failed)
      | Failed _ -> (ok, failed + 1))
    (0, 0) trace

let test_equivalence () =
  let ops_count = 1_500 and seed = 19 in
  let reference = Probe_seq.run ~ops_count ~seed in
  let ok, failed = trace_stats reference.trace in
  Alcotest.(check int) "reference executed everything" ops_count (ok + failed);
  Alcotest.(check bool) "reference did real work" true (ok > 0 && failed > 0);
  List.iter
    (fun (name, run) ->
      let outcome = run ~ops_count ~seed in
      Alcotest.(check bool)
        (name ^ " trace identical to seq")
        true
        (outcome.trace = reference.trace);
      Alcotest.(check int)
        (name ^ " final structure identical")
        reference.fingerprint outcome.fingerprint)
    all_probes

let test_different_seed_differs () =
  let a = Probe_seq.run ~ops_count:500 ~seed:19 in
  let b = Probe_seq.run ~ops_count:500 ~seed:20 in
  Alcotest.(check bool) "different seeds diverge" true
    (a.trace <> b.trace || a.fingerprint <> b.fingerprint)

(* Profile-directed dispatch: under TL2 and LSA the trace's read-only
   operations run through the zero-log/snapshot path. The trace must
   still match seq (same results through a different transaction
   mode), the fast path must actually fire ([ro_zero_log_commits]
   > 0), and — all profiles being honest after the R4 lint triage —
   no operation may get demoted. *)
let test_ro_paths_exercised () =
  let ops_count = 1_500 and seed = 19 in
  let reference = Probe_seq.run ~ops_count ~seed in
  List.iter
    (fun (name, run, stats, reset_stats) ->
      reset_stats ();
      let outcome = run ~ops_count ~seed in
      Alcotest.(check bool)
        (name ^ " trace identical to seq through the ro path")
        true
        (outcome.trace = reference.trace);
      let c k = Option.value (List.assoc_opt k (stats ())) ~default:0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s ro fast path exercised (got %d)" name
           (c "ro_zero_log_commits"))
        true
        (c "ro_zero_log_commits" > 0);
      Alcotest.(check int) (name ^ " no profile lied") 0 (c "ro_demotions"))
    [
      ( "tl2",
        Probe_tl2.run,
        Sb7_runtime.Tl2_runtime.stats,
        Sb7_runtime.Tl2_runtime.reset_stats );
      ( "lsa",
        Probe_lsa.run,
        Sb7_runtime.Lsa_runtime.stats,
        Sb7_runtime.Lsa_runtime.reset_stats );
    ]

(* Adaptive demotion: an operation whose profile claims read-only but
   whose body writes must still produce correct results under every
   STM runtime — one clean restart, a sticky demotion, never a wrong
   value. *)
module Demotion_probe (R : Sb7_runtime.Runtime_intf.S) = struct
  let run ~expect_demotions () =
    R.reset_stats ();
    let tv = R.make 0 in
    let lying_profile = Sb7_runtime.Op_profile.make ~name:"liar-op" () in
    for i = 1 to 5 do
      let v =
        R.atomic ~profile:lying_profile (fun () ->
            R.write tv (R.read tv + 1);
            R.read tv)
      in
      Alcotest.(check int) (Printf.sprintf "iteration %d result" i) i v
    done;
    Alcotest.(check int) "all five updates committed" 5 (R.read tv);
    let c k = Option.value (List.assoc_opt k (R.stats ())) ~default:0 in
    Alcotest.(check int)
      (R.name ^ " demoted exactly once (sticky registry)")
      expect_demotions (c "ro_demotions")
end

module Demote_tl2 = Demotion_probe (Sb7_runtime.Tl2_runtime)
module Demote_lsa = Demotion_probe (Sb7_runtime.Lsa_runtime)
module Demote_norec = Demotion_probe (Sb7_runtime.Norec_runtime)
module Demote_etl = Demotion_probe (Sb7_runtime.Etl_runtime)
module Demote_astm = Demotion_probe (Sb7_runtime.Astm_runtime)

let test_demotion () =
  (* ASTM's atomic_ro is a pass-through, so its writes never trip the
     signal and nothing is ever demoted. *)
  Demote_tl2.run ~expect_demotions:1 ();
  Demote_lsa.run ~expect_demotions:1 ();
  Demote_norec.run ~expect_demotions:1 ();
  Demote_etl.run ~expect_demotions:1 ();
  Demote_astm.run ~expect_demotions:0 ()

(* Checkpointed partial abort: a long ordered scan invalidated
   mid-flight must salvage its checkpoint prefix and still compute
   exactly what a full restart computes — same value, same counters
   telling the opposite story about how it got there. *)
module Checkpoint_probe (R : Sb7_runtime.Runtime_intf.S) = struct
  let n = 100
  let conflict_at = 60 (* scan position where the writer is released *)

  (* One scan transaction over [n] tvars, one checkpoint per element
     (mirroring Nav.traverse_composite_parts). On the first pass only,
     after [conflict_at] elements, a helper domain commits writes to
     tvar 10 (already read — invalidates the prefix past position 10)
     and tvar 80 (not yet read — forces the scanner's next extension
     to notice). The scanner's next read of tvar 80 then raises
     Conflict: checkpointed, it must roll back to the mark after
     element 9 and resume; full-abort, it restarts from scratch. *)
  let run ~checkpointed () =
    R.reset_stats ();
    let tvars = Array.init n (fun i -> R.make (i + 1)) in
    let trigger = Atomic.make false and done_ = Atomic.make false in
    let fired = ref false in
    let profile name =
      Sb7_runtime.Op_profile.make ~name
        ~writes:[ Sb7_runtime.Op_profile.Atomic_parts ]
        ()
    in
    let helper =
      Domain.spawn (fun () ->
          while not (Atomic.get trigger) do
            Domain.cpu_relax ()
          done;
          R.atomic ~profile:(profile "cp-writer") (fun () ->
              R.write tvars.(10) 1_000;
              R.write tvars.(80) 2_000);
          Atomic.set done_ true)
    in
    Sb7_stm.Stm_intf.partial_abort_enabled := checkpointed;
    let total =
      Fun.protect
        ~finally:(fun () -> Sb7_stm.Stm_intf.partial_abort_enabled := true)
        (fun () ->
          R.atomic ~profile:(profile "cp-scanner") (fun () ->
              let skip, saved = R.resume () in
              let sum = ref saved in
              for i = skip to n - 1 do
                sum := !sum + R.read tvars.(i);
                R.checkpoint ~acc:!sum;
                if i = conflict_at && not !fired then begin
                  fired := true;
                  Atomic.set trigger true;
                  while not (Atomic.get done_) do
                    Domain.cpu_relax ()
                  done
                end
              done;
              !sum))
    in
    Domain.join helper;
    let expected = ref 0 in
    for i = 0 to n - 1 do
      expected :=
        !expected
        + (if i = 10 then 1_000 else if i = 80 then 2_000 else i + 1)
    done;
    Alcotest.(check int)
      (Printf.sprintf "%s scan total (checkpointed=%b)" R.name checkpointed)
      !expected total;
    let c k = Option.value (List.assoc_opt k (R.stats ())) ~default:0 in
    (c "partial_aborts", c "reads_salvaged", c "aborts")
end

module Cp_tl2 = Checkpoint_probe (Sb7_runtime.Tl2_runtime)
module Cp_lsa = Checkpoint_probe (Sb7_runtime.Lsa_runtime)
module Cp_etl = Checkpoint_probe (Sb7_runtime.Etl_runtime)

let test_checkpoint_resume () =
  List.iter
    (fun (name, run) ->
      (* Checkpointed: the conflict is resolved by partial abort — the
         10-entry prefix before the invalidated read survives and no
         full abort is charged for it. *)
      let partial_aborts, reads_salvaged, aborts = run ~checkpointed:true () in
      Alcotest.(check int) (name ^ " one partial abort") 1 partial_aborts;
      Alcotest.(check int) (name ^ " salvaged the 10-read prefix") 10
        reads_salvaged;
      Alcotest.(check int) (name ^ " no full abort when salvaging") 0 aborts;
      (* Full-abort baseline: same scenario, same result, opposite
         counters. *)
      let partial_aborts, reads_salvaged, aborts = run ~checkpointed:false () in
      Alcotest.(check int) (name ^ " no partial abort when disabled") 0
        partial_aborts;
      Alcotest.(check int) (name ^ " nothing salvaged when disabled") 0
        reads_salvaged;
      Alcotest.(check bool) (name ^ " full abort charged instead") true
        (aborts >= 1))
    [ ("tl2", Cp_tl2.run); ("lsa", Cp_lsa.run); ("etl", Cp_etl.run) ]

(* The same probe run from short-lived domains, twice: the second
   execution's scanner adopts the descriptor the first one donated to
   the substrate pool on exit, so identical salvage counters prove the
   checkpoint marks and partial-abort rollback survive log recycling
   (watermark truncation on a reused structure-of-arrays log) exactly
   as on a fresh descriptor. *)
let test_checkpoint_resume_on_pooled_descriptor () =
  let run_in_domain () =
    Domain.join (Domain.spawn (fun () -> Cp_tl2.run ~checkpointed:true ()))
  in
  let first = run_in_domain () in
  let second = run_in_domain () in
  Alcotest.(check (triple int int int))
    "salvage counters identical on a recycled descriptor" first second

(* Adaptive tournament: a forced phase change (read-only storm, then a
   write storm) on a short-epoch instance must move the championship —
   at least one switch, with NOrec holding the title during the
   read-only phase. Single-threaded, so signals are deterministic up
   to batching. *)
module Tourney = Sb7_runtime.Tournament_runtime
module Tiny_tournament = Tourney.Make (struct
  let name = "tournament-tiny"
  let epoch_length = 64
  let policy = Tourney.Policy.default_config
end)

let test_tournament_phase_change () =
  let module R = Tiny_tournament in
  R.reset_stats ();
  let cells = Array.init 32 (fun i -> R.make i) in
  let ro_profile = Sb7_runtime.Op_profile.make ~name:"phase-ro" () in
  let wr_profile =
    Sb7_runtime.Op_profile.make ~name:"phase-wr"
      ~writes:[ Sb7_runtime.Op_profile.Atomic_parts ]
      ()
  in
  (* Read-only phase: high ro_rate, zero aborts — NOrec's home turf. *)
  for _ = 1 to 1_500 do
    ignore
      (R.atomic ~profile:ro_profile (fun () ->
           Array.fold_left (fun acc c -> acc + R.read c) 0 cells))
  done;
  let c k = Option.value (List.assoc_opt k (R.stats ())) ~default:0 in
  Alcotest.(check bool)
    (Printf.sprintf "ro phase crowned norec (switches=%d, norec epochs=%d)"
       (c "substrate_switches")
       (c "champion_epochs_norec"))
    true
    (c "substrate_switches" >= 1 && c "champion_epochs_norec" > 0);
  (* Write phase: ro_rate collapses, the champion must move off NOrec. *)
  let before = c "substrate_switches" in
  for i = 1 to 1_500 do
    R.atomic ~profile:wr_profile (fun () ->
        R.write cells.(i mod 32) (R.read cells.(i mod 32) + 1))
  done;
  let c k = Option.value (List.assoc_opt k (R.stats ())) ~default:0 in
  Alcotest.(check bool)
    (Printf.sprintf "write phase dethroned norec (switches %d -> %d)" before
       (c "substrate_switches"))
    true
    (c "substrate_switches" > before);
  Alcotest.(check bool)
    (Printf.sprintf "epochs were decided (%d)" (c "epoch_decisions"))
    true
    (c "epoch_decisions" > 0);
  (* All that adaptation must not have lost a single update. *)
  let total =
    R.atomic ~profile:ro_profile (fun () ->
        Array.fold_left (fun acc c -> acc + R.read c) 0 cells)
  in
  Alcotest.(check int) "updates survived every migration"
    (1_500 + Array.fold_left ( + ) 0 (Array.init 32 (fun i -> i)))
    total

(* Hysteresis, on the pure policy: a challenger that only wins every
   other epoch never gets crowned (no flapping), while a stable winner
   is crowned after exactly [streak] consecutive epochs. *)
let test_tournament_hysteresis () =
  let module P = Tourney.Policy in
  let cfg = P.default_config in
  let ro =
    { P.abort_rate = 0.; ro_rate = 1.; mean_read_set = 8.; salvage_rate = 0. }
  in
  let wr =
    { P.abort_rate = 0.; ro_rate = 0.; mean_read_set = 8.; salvage_rate = 0. }
  in
  Alcotest.(check bool) "norec outscores tl2 on the ro signals" true
    (P.score P.norec ro > P.score P.tl2 ro +. cfg.P.margin);
  Alcotest.(check bool) "tl2 outscores norec on the write signals" true
    (P.score P.tl2 wr > P.score P.norec wr);
  (* Noisy signals: the would-be challenger wins only every other
     epoch, so its streak never reaches [cfg.streak] and the champion
     never changes. *)
  let st = ref P.initial in
  for i = 1 to 40 do
    st := P.decide cfg !st (if i mod 2 = 0 then ro else wr);
    Alcotest.(check int)
      (Printf.sprintf "no flap at epoch %d" i)
      P.tl2 (P.champion !st)
  done;
  (* Stable signals: the crown moves after exactly [streak] consecutive
     winning epochs, not one sooner. *)
  let st = ref P.initial in
  for _ = 1 to cfg.P.streak - 1 do
    st := P.decide cfg !st ro;
    Alcotest.(check int) "still dwelling on the incumbent" P.tl2
      (P.champion !st)
  done;
  st := P.decide cfg !st ro;
  Alcotest.(check int)
    (Printf.sprintf "crowned after %d consecutive epochs" cfg.P.streak)
    P.norec (P.champion !st)

(* The registry is the single source the CLI strategy listing, the
   quick-bench sweep and the sanitizer's check loop are generated
   from; pin its contents so none of them can silently lose a
   strategy. *)
let test_registry_names () =
  Alcotest.(check (list string))
    "registry lists every strategy in presentation order"
    [
      "seq"; "coarse"; "medium"; "fine"; "tl2"; "lsa"; "norec"; "etl";
      "astm"; "tournament";
    ]
    Sb7_runtime.Registry.names;
  List.iter
    (fun name ->
      match Sb7_runtime.Registry.find name with
      | Ok (module R : Sb7_runtime.Runtime_intf.S) ->
        Alcotest.(check string) (name ^ " round-trips") name R.name
      | Error e -> Alcotest.failf "find %s: %s" name e)
    Sb7_runtime.Registry.names;
  match Sb7_runtime.Registry.find "no-such-strategy" with
  | Ok _ -> Alcotest.fail "unknown strategy resolved"
  | Error _ -> ()

(* One counter contract for every registered strategy: after a short
   single-domain run the [stats] keys are unique and include [commits]
   and [aborts], [reset_stats] zeroes every value, and the STM
   strategies (the tournament included) lead with the shared STM
   counters in declaration order — the columns the CSV and the quick
   bench JSON export. *)
let test_counter_contract () =
  let stm_keys = List.map fst Sb7_stm.Stm_stats.(to_assoc zero) in
  let stm_strategies = [ "tl2"; "lsa"; "norec"; "etl"; "astm"; "tournament" ] in
  List.iter
    (fun (name, (module R : Sb7_runtime.Runtime_intf.S)) ->
      let module Pr = Probe (R) in
      ignore (Pr.run ~ops_count:300 ~seed:23);
      let keys = List.map fst (R.stats ()) in
      Alcotest.(check int) (name ^ " keys unique")
        (List.length keys)
        (List.length (List.sort_uniq compare keys));
      List.iter
        (fun k ->
          Alcotest.(check bool) (name ^ " exports " ^ k) true (List.mem k keys))
        [ "commits"; "aborts" ];
      if List.mem name stm_strategies then
        Alcotest.(check (list string))
          (name ^ " leads with the STM counters")
          stm_keys
          (List.filteri (fun i _ -> i < List.length stm_keys) keys);
      R.reset_stats ();
      List.iter
        (fun (k, v) -> Alcotest.(check int) (name ^ " " ^ k ^ " reset") 0 v)
        (R.stats ()))
    Sb7_runtime.Registry.all

let () =
  Alcotest.run "runtime_equivalence"
    [
      ( "equivalence",
        [
          Alcotest.test_case "all runtimes match seq single-threaded" `Slow
            test_equivalence;
          Alcotest.test_case "seeds differentiate" `Quick
            test_different_seed_differs;
          Alcotest.test_case "ro paths exercised, traces unchanged" `Slow
            test_ro_paths_exercised;
          Alcotest.test_case "mis-declared profiles demote cleanly" `Quick
            test_demotion;
          Alcotest.test_case "checkpoint resume matches full restart" `Quick
            test_checkpoint_resume;
          Alcotest.test_case "checkpoint resume on a pooled descriptor"
            `Quick test_checkpoint_resume_on_pooled_descriptor;
          Alcotest.test_case "tournament adapts across a phase change" `Quick
            test_tournament_phase_change;
          Alcotest.test_case "tournament hysteresis never flaps" `Quick
            test_tournament_hysteresis;
          Alcotest.test_case "registry is the single strategy source" `Quick
            test_registry_names;
          Alcotest.test_case "every runtime honours the counter contract"
            `Quick test_counter_contract;
        ] );
    ]
