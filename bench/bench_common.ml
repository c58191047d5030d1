(* Shared machinery for the experiment benches: run settings (quick CI
   defaults vs the paper's full configuration), single-point execution,
   and table printing. *)

module B = Sb7_harness.Benchmark
module W = Sb7_harness.Workload
module RR = Sb7_harness.Run_result
module P = Sb7_core.Parameters

type settings = {
  duration : float; (* seconds per measured point *)
  warmup : float; (* discarded run-in before each measured point *)
  scale : P.t;
  scale_name : string;
  threads : int list; (* thread counts swept by the figures *)
  seed : int;
  minor_heap : int option;
      (* per-domain minor arena (words) every measured point runs
         under; recorded in each result's minor_heap_words column so
         the GC-pressure numbers stay interpretable *)
}

(* Quick settings keep the full sweep under a few minutes on one core;
   [--full] reproduces the paper's medium scale and 1..8 threads. Both
   run with an 8 MiB (2^20-word) minor arena per domain — the
   allocation pass's sizing knob, see docs/PERF.md §9 — so minor-GC
   rates across sections are comparable and not dominated by the 256k
   default arena cycling every few hundred commits. *)
let quick =
  {
    duration = 1.0;
    warmup = 0.;
    scale = P.small;
    scale_name = "small";
    threads = [ 1; 2; 4 ];
    seed = 42;
    minor_heap = Some (1 lsl 20);
  }

let full =
  {
    duration = 4.0;
    warmup = 1.0;
    scale = P.medium;
    scale_name = "medium";
    threads = [ 1; 2; 3; 4; 6; 8 ];
    seed = 42;
    minor_heap = Some (1 lsl 20);
  }

type point_config = {
  runtime : string;
  workload : W.kind;
  threads : int;
  long_traversals : bool;
  structure_mods : bool;
  reduced : bool;
  index_kind : Sb7_core.Index_intf.kind;
  cm : Sb7_stm.Contention.policy;
  max_ops : int option;
}

let point ?(long_traversals = true) ?(structure_mods = true)
    ?(reduced = false) ?(index_kind = Sb7_core.Index_intf.Avl)
    ?(cm = Sb7_stm.Contention.Polka) ?max_ops ~runtime ~workload ~threads () =
  {
    runtime;
    workload;
    threads;
    long_traversals;
    structure_mods;
    reduced;
    index_kind;
    cm;
    max_ops;
  }

(* Every measured point is also collected here so main can dump the
   whole session as CSV (--csv FILE). *)
let collected : RR.t list ref = ref []

(* Set by main's [--json] flag: the [quick] experiment then writes its
   per-strategy snapshot to BENCH_quick.json. *)
let write_json = ref false

(* Run [f] with the global switch [flag] set to [value], restoring the
   previous setting however [f] exits. *)
let with_switch flag value f =
  let saved = !flag in
  flag := value;
  Fun.protect ~finally:(fun () -> flag := saved) f

(* Run one benchmark point on a fresh structure. *)
let run_point (s : settings) (pt : point_config) : RR.t =
  Sb7_stm.Astm.set_policy pt.cm;
  let config =
    {
      B.threads = pt.threads;
      duration_s = s.duration;
      warmup_s = s.warmup;
      max_ops = pt.max_ops;
      workload = pt.workload;
      mix = W.default_mix;
      long_traversals = pt.long_traversals;
      structure_mods = pt.structure_mods;
      reduced_ops = pt.reduced;
      only_op = None;
      scale = s.scale;
      scale_name = s.scale_name;
      index_kind = pt.index_kind;
      seed = s.seed;
      histograms = false;
      sanitize = false;
      minor_heap = s.minor_heap;
    }
  in
  match Sb7_harness.Driver.run ~runtime_name:pt.runtime config with
  | Ok r ->
    collected := r :: !collected;
    r
  | Error e -> failwith e

let dump_csv path =
  let oc = open_out path in
  Sb7_harness.Csv.write_summary oc (List.rev !collected);
  close_out oc;
  Printf.printf "\nwrote %d data points to %s\n" (List.length !collected) path

(* --- Table printing --- *)

let hrule width = String.make width '-'

let print_header title =
  Printf.printf "\n%s\n%s\n%s\n" (hrule 72) title (hrule 72)

(* Print a table: one row per thread count, one column per series. *)
let print_series ~row_label ~rows ~series ~(cell : int -> string -> float) =
  Printf.printf "%-10s" row_label;
  List.iter (fun name -> Printf.printf " %16s" name) series;
  print_newline ();
  List.iter
    (fun row ->
      Printf.printf "%-10d" row;
      List.iter (fun name -> Printf.printf " %16.1f" (cell row name)) series;
      print_newline ())
    rows

let note fmt = Printf.printf ("note: " ^^ fmt ^^ "\n")
