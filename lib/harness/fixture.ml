(** The planted bugs that prove the sanitizer bites (docs/SANITIZER.md).
    Each row arms a fault compiled into the normal build behind an
    [Unsafe] flag, runs its runtime sanitized, and names the verdict
    category that must flag it. [sb7-sanitize seeded NAME] and
    test_sanitize both run this table. *)

module Checker = Sb7_sanitize.Checker

type category = Opacity | Races | Read_escapes | Write_escapes

let findings category (v : Checker.verdict) =
  match category with
  | Opacity -> v.opacity
  | Races -> v.races
  | Read_escapes -> v.footprint.read_escapes
  | Write_escapes -> v.footprint.write_escapes

let category_name = function
  | Opacity -> "opacity"
  | Races -> "lockset race"
  | Read_escapes -> "footprint may-read"
  | Write_escapes -> "footprint may-write"

type t = {
  name : string;
  bug : string;  (** what is planted, in a few words *)
  runtime : string;
  workload : Workload.kind;
  arm : unit -> unit;
  disarm : unit -> unit;
  expect : category;
}

let all =
  [
    {
      (* Commits and read-set extensions skip validation. *)
      name = "tl2-no-validation";
      bug = "tl2 without validation";
      runtime = "tl2";
      workload = Workload.Write_dominated;
      arm = Sb7_stm.Tl2.Unsafe.disable_validation;
      disarm = Sb7_stm.Tl2.Unsafe.reset;
      expect = Opacity;
    };
    {
      (* A partial abort salvages its checkpoint prefix without
         validating it, so the resumed attempt can straddle a
         concurrent commit: re-reads after the resume observe newer
         versions than the salvaged prefix did. *)
      name = "tl2-unvalidated-resume";
      bug = "tl2 unvalidated resume";
      runtime = "tl2";
      workload = Workload.Write_dominated;
      arm = Sb7_stm.Tl2.Unsafe.disable_resume_validation;
      disarm = Sb7_stm.Tl2.Unsafe.reset;
      expect = Opacity;
    };
    {
      (* Reads adopt the moved global sequence number, and commits
         publish, without the value-based revalidation: a transaction
         straddling a concurrent commit mixes snapshots. *)
      name = "norec-skip-revalidation";
      bug = "norec skipped revalidation";
      runtime = "norec";
      workload = Workload.Write_dominated;
      arm = Sb7_stm.Norec.Unsafe.disable_revalidation;
      disarm = Sb7_stm.Norec.Unsafe.reset;
      expect = Opacity;
    };
    {
      (* The first write entry of every locking plan is skipped. *)
      name = "medium-drop-lock";
      bug = "medium dropped lock";
      runtime = "medium";
      workload = Workload.Write_dominated;
      arm = Sb7_runtime.Medium_runtime.Unsafe.drop_first_write_lock;
      disarm = Sb7_runtime.Medium_runtime.Unsafe.reset;
      expect = Races;
    };
    {
      (* A read takes its tvar's lock and releases it at once. *)
      name = "fine-early-read-release";
      bug = "fine early read release";
      runtime = "fine";
      workload = Workload.Write_dominated;
      arm = Sb7_runtime.Fine_runtime.Unsafe.release_reads_early;
      disarm = Sb7_runtime.Fine_runtime.Unsafe.reset;
      expect = Races;
    };
    {
      (* OP2 reads the manual's text, outside its may-read set. *)
      name = "read-escape";
      bug = "OP2 reads the manual";
      runtime = "tl2";
      workload = Workload.Read_write;
      arm = Benchmark.Unsafe.read_escape;
      disarm = Benchmark.Unsafe.reset;
      expect = Read_escapes;
    };
    {
      (* OP9 writes the manual's text back, outside its may-write set.
         The write reads the text first, which is a may-read escape
         too; only the may-write check can flag this row. *)
      name = "write-escape";
      bug = "OP9 writes the manual";
      runtime = "tl2";
      workload = Workload.Read_write;
      arm = Benchmark.Unsafe.write_escape;
      disarm = Benchmark.Unsafe.reset;
      expect = Write_escapes;
    };
  ]

let attempts = 3

(* A planted bug can corrupt the structure badly enough to raise
   mid-run. The trace up to the crash is still analyzable, and the
   crash corroborates the bug rather than excusing a missed detection. *)
let run_once config fixture =
  fixture.arm ();
  Fun.protect ~finally:fixture.disarm (fun () ->
      match Driver.run ~runtime_name:fixture.runtime config with
      | Ok r -> Option.get r.Run_result.sanitizer
      | Error e -> invalid_arg e
      | exception _ -> Benchmark.trace_verdict fixture.runtime)

(** Run [fixture] sanitized under [config], with its own workload, until
    its category flags it: at most {!attempts} runs, each with the next
    seed and twice the duration, because detection needs a racy
    interleaving or the op to be sampled. Returns the number of the last
    run and its verdict; the bug was detected iff
    [findings fixture.expect verdict <> []]. *)
let detect (config : Benchmark.config) fixture =
  let rec go i duration_s =
    let v =
      run_once
        {
          config with
          workload = fixture.workload;
          seed = config.seed + i;
          duration_s;
          sanitize = true;
        }
        fixture
    in
    if findings fixture.expect v <> [] || i = attempts then (i, v)
    else go (i + 1) (duration_s *. 2.)
  in
  go 1 config.duration_s
