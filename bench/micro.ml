(* Bechamel micro-benchmarks of the operation kernels under the
   sequential runtime: the per-operation costs that the macro figures
   aggregate. One Test.make per operation family. *)

open Bechamel
open Toolkit
module Seq = Sb7_runtime.Seq_runtime
module I = Sb7_core.Instance.Make (Seq)
module P = Sb7_core.Parameters

(* Each kernel runs on a structure of its own: on one shared structure,
   SM3's thousands of repeats add links that every later traversal and
   ST4 then walks, so a kernel's figure depended on the kernels run
   before it. *)
let op_test code =
  let setup = lazy (I.Setup.create ~seed:42 P.tiny) in
  let rng = Sb7_core.Sb_random.create ~seed:13 in
  let op =
    match I.Operation.by_code code with
    | Some op -> op
    | None -> assert false
  in
  Test.make ~name:code
    (Staged.stage (fun () ->
         let setup = Lazy.force setup in
         match op.I.Operation.run rng setup with
         | (_ : int) -> ()
         | exception Sb7_core.Common.Operation_failed _ -> ()))

let text_tests =
  let doc = Sb7_core.Text.generate ~phrase:"I am documentation. " ~size:2_000 in
  [
    Test.make ~name:"count_char"
      (Staged.stage (fun () -> ignore (Sb7_core.Text.count_char doc 'I')));
    Test.make ~name:"toggle_i_am"
      (Staged.stage (fun () -> ignore (Sb7_core.Text.toggle_i_am doc)));
  ]

let stm_tests =
  let module T = Sb7_stm.Tl2 in
  let module L = Sb7_stm.Lsa in
  let tv = T.make 0 in
  let atv = Sb7_stm.Astm.make 0 in
  let ltv = L.make 0 in
  let tl2_cells = Array.init 64 T.make in
  let lsa_cells = Array.init 64 L.make in
  [
    Test.make ~name:"tl2-rw-txn"
      (Staged.stage (fun () ->
           T.atomic (fun () -> T.write tv (T.read tv + 1))));
    Test.make ~name:"astm-rw-txn"
      (Staged.stage (fun () ->
           Sb7_stm.Astm.atomic (fun () ->
               Sb7_stm.Astm.write atv (Sb7_stm.Astm.read atv + 1))));
    (* Read-set dedup fast path: 100 reads of one tvar log one entry. *)
    Test.make ~name:"tl2-reread-100"
      (Staged.stage (fun () ->
           T.atomic (fun () ->
               for _ = 1 to 100 do
                 ignore (T.read tv)
               done)));
    (* Bloom-filtered write-set lookup: one buffered write, then 64
       reads of other tvars that must skip the hash probe. *)
    Test.make ~name:"tl2-read-64-after-write"
      (Staged.stage (fun () ->
           T.atomic (fun () ->
               T.write tv 1;
               Array.iter (fun c -> ignore (T.read c)) tl2_cells)));
    (* Array-backed history append (plus the GV4 commit clock). *)
    Test.make ~name:"lsa-rw-txn"
      (Staged.stage (fun () ->
           L.atomic (fun () -> L.write ltv (L.read ltv + 1))));
    (* Circular-buffer version search on the snapshot path. *)
    Test.make ~name:"lsa-snapshot-scan-64"
      (Staged.stage (fun () ->
           L.atomic_snapshot (fun () ->
               Array.iter (fun c -> ignore (L.read c)) lsa_cells)));
    (* Zero-log read-only mode vs the logging update path: the same 64
       reads, no read-set append / dedup probe / commit validation. *)
    Test.make ~name:"tl2-ro-read-64"
      (Staged.stage (fun () ->
           T.atomic_ro (fun () ->
               Array.iter (fun c -> ignore (T.read c)) tl2_cells)));
    Test.make ~name:"tl2-update-read-64"
      (Staged.stage (fun () ->
           T.atomic (fun () ->
               Array.iter (fun c -> ignore (T.read c)) tl2_cells)));
    Test.make ~name:"lsa-ro-read-64"
      (Staged.stage (fun () ->
           L.atomic_ro (fun () ->
               Array.iter (fun c -> ignore (L.read c)) lsa_cells)));
  ]

(* NOrec vs TL2 on the read path, and ETL vs TL2 on a write-then-reread
   mix. norec-read-64 pays one global seqlock load per read but no
   per-tvar vlock probe; tl2-read-64 is the per-tvar pre/post vlock
   protocol. etl-write-conflict updates in place, so the re-reads of
   its own writes are plain loads; tl2-write-conflict buffers the
   writes and must bloom-probe (and hash-hit) them on every re-read. *)
let substrate_tests =
  let module T = Sb7_stm.Tl2 in
  let module N = Sb7_stm.Norec in
  let module E = Sb7_stm.Etl in
  let tl2_cells = Array.init 64 T.make in
  let norec_cells = Array.init 64 N.make in
  let etl_cells = Array.init 64 E.make in
  [
    Test.make ~name:"norec-read-64"
      (Staged.stage (fun () ->
           N.atomic (fun () ->
               Array.iter (fun c -> ignore (N.read c)) norec_cells)));
    Test.make ~name:"tl2-read-64"
      (Staged.stage (fun () ->
           T.atomic (fun () ->
               Array.iter (fun c -> ignore (T.read c)) tl2_cells)));
    Test.make ~name:"etl-write-conflict"
      (Staged.stage (fun () ->
           E.atomic (fun () ->
               for i = 0 to 7 do
                 E.write etl_cells.(i) (E.read etl_cells.(i) + 1)
               done;
               Array.iter (fun c -> ignore (E.read c)) etl_cells)));
    Test.make ~name:"tl2-write-conflict"
      (Staged.stage (fun () ->
           T.atomic (fun () ->
               for i = 0 to 7 do
                 T.write tl2_cells.(i) (T.read tl2_cells.(i) + 1)
               done;
               Array.iter (fun c -> ignore (T.read c)) tl2_cells)));
  ]

(* --- Sanitizer wrapper overhead (tracing OFF) ----------------------

   The disabled wrapper's marginal cost per access is one indirect
   inner-runtime call, one dependent load (the immutable
   [{v; wid; sid}] cell) and one flag check. On the hottest honest
   path — a read-only TL2 transaction doing nothing but 64 reads at
   ~10 ns each — that measures ~16% here (non-flambda; see
   docs/SANITIZER.md for the table and the much smaller end-to-end
   numbers on real operations, which do work between accesses).
   [sanitize_overhead] turns the pair into a pass/fail regression gate
   (min-of-runs hand timing, threshold [overhead_max_pct], default
   lenient because shared CI runners jitter). *)

let ro_profile = Sb7_runtime.Op_profile.make ~name:"bench-ro" ()

(* Both kernels share this functor body, so they run the very same
   instructions calling through the very same indirection — exactly how
   the harness reaches any runtime (through [Instance.Make]'s functor
   parameter). The pair thus isolates the wrapper's marginal cost
   rather than charging it for functor call overhead the bare runtime
   also pays in production. *)
module Ro_kernel (M : Sb7_runtime.Runtime_intf.S) = struct
  let cells = lazy (Array.init 64 (fun _ -> M.make 0))

  let run () =
    let cells = Lazy.force cells in
    M.atomic ~profile:ro_profile (fun () ->
        Array.iter (fun c -> ignore (M.read c)) cells)
end

module Bare = Ro_kernel (Sb7_runtime.Tl2_runtime)
module Wrapped =
  Ro_kernel (Sb7_sanitize.Sanitize.Make (Sb7_runtime.Tl2_runtime))

let bare_ro_kernel = Bare.run
let wrapped_ro_kernel = Wrapped.run

let sanitize_tests =
  [
    Test.make ~name:"tl2-ro-read-64-bare" (Staged.stage bare_ro_kernel);
    Test.make ~name:"tl2-ro-read-64-sanitize-off"
      (Staged.stage wrapped_ro_kernel);
  ]

let overhead_max_pct = ref 25.0

let sanitize_overhead () =
  assert (not (Sb7_sanitize.Trace.enabled ()));
  let iters = 20_000 and reps = 12 in
  let time f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  (* Warm both paths (lazy cells, caches, branch predictors). *)
  ignore (time bare_ro_kernel);
  ignore (time wrapped_ro_kernel);
  let tb = time bare_ro_kernel in
  let tw = time wrapped_ro_kernel in
  let pct = (tw -. tb) /. tb *. 100. in
  Printf.printf
    "sanitize-overhead: bare %.1f ns/txn, wrapped(off) %.1f ns/txn, \
     overhead %+.2f%% (max %.1f%%)\n%!"
    (tb /. float_of_int iters *. 1e9)
    (tw /. float_of_int iters *. 1e9)
    pct !overhead_max_pct;
  if pct > !overhead_max_pct then begin
    Printf.printf
      "sanitize-overhead: FAIL — disabled instrumentation is not free \
       enough\n%!";
    exit 1
  end
  else Printf.printf "sanitize-overhead: ok\n%!"

(* Scalability kernels: each shared hot spot the sharding pass removes,
   head-to-head with its replacement, at 1 and 4 domains. One staged
   run = every domain performing [contended_iters] operations (spawn
   and join included), so "time/run" compares like with like across
   the 1d/4d variants of a pair. On a multi-core box the shared
   variants blow up at 4 domains (cache-line ping-pong) while the
   sharded/chunked ones stay near-flat; on a single core the gap is
   only the per-op cost difference. *)
let contended_iters = 65_536

let run_in_domains n (f : unit -> unit) =
  if n = 1 then f ()
  else begin
    let ds = List.init n (fun _ -> Domain.spawn f) in
    List.iter Domain.join ds
  end

let scaling_tests =
  let shared = Atomic.make 0 in
  let module C = Sb7_stm.Sharded_counter in
  let schema = C.schema () in
  let hits = C.declare schema "hits" in
  let sharded = C.create schema in
  let cas_ids = Atomic.make 0 in
  let chunked = Sb7_stm.Tvar_id.create () in
  let test name n body =
    Test.make ~name (Staged.stage (fun () -> run_in_domains n body))
  in
  let shared_body () =
    for _ = 1 to contended_iters do
      ignore (Atomic.fetch_and_add shared 1)
    done
  in
  let sharded_body () =
    for _ = 1 to contended_iters do
      C.incr sharded hits
    done
  in
  let cas_body () =
    for _ = 1 to contended_iters do
      ignore (Atomic.fetch_and_add cas_ids 1)
    done
  in
  let chunked_body () =
    for _ = 1 to contended_iters do
      ignore (Sb7_stm.Tvar_id.fresh chunked)
    done
  in
  [
    test "counter-shared-atomic-1d" 1 shared_body;
    test "counter-shared-atomic-4d" 4 shared_body;
    test "counter-sharded-1d" 1 sharded_body;
    test "counter-sharded-4d" 4 sharded_body;
    test "tvar-id-global-cas-1d" 1 cas_body;
    test "tvar-id-global-cas-4d" 4 cas_body;
    test "tvar-id-chunked-1d" 1 chunked_body;
    test "tvar-id-chunked-4d" 4 chunked_body;
  ]

let tests () =
  Test.make_grouped ~name:"kernels"
    ([
       op_test "ST1";
       op_test "ST3";
       op_test "OP1";
       op_test "OP2";
       op_test "OP7";
       op_test "T1";
       op_test "T6";
       op_test "Q6";
       op_test "SM3";
       (* The operations that dominate measured time: title lookups,
          text scans and rewrites, and indexed date updates. *)
       op_test "ST4";
       op_test "OP4";
       op_test "OP11";
       op_test "ST7";
       op_test "T5";
       op_test "OP15";
     ]
    @ text_tests @ stm_tests @ substrate_tests @ sanitize_tests
    @ scaling_tests)

let run () =
  Bench_common.print_header
    "Micro-benchmarks — per-operation kernel cost (sequential runtime, \
     tiny scale)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-28s %18s %10s\n" "kernel" "time/run [ns]" "r^2";
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | _ -> nan
      in
      let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
      Printf.printf "%-28s %18.1f %10.4f\n" name estimate r2)
    rows
