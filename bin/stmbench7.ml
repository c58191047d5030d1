(* STMBench7 command-line interface, mirroring the original's flags
   (paper Appendix A.1): -t threads, -l length, -w workload,
   -g granularity/strategy, --no-traversals, --no-sms,
   --ttc-histograms — plus the OCaml port's extras: --scale, --index,
   --seed, --reduced, --cm, --max-ops. *)

module B = Sb7_harness.Benchmark
module Workload = Sb7_harness.Workload

open Cmdliner

let conv_of_parser ~docv parse print =
  Arg.conv ~docv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), print)

let workload_conv =
  conv_of_parser ~docv:"WORKLOAD" Workload.kind_of_string (fun ppf w ->
      Format.pp_print_string ppf (Workload.kind_to_string w))

let scale_conv =
  conv_of_parser ~docv:"SCALE"
    (fun s -> Result.map (fun p -> (s, p)) (Sb7_core.Parameters.of_string s))
    (fun ppf (name, _) -> Format.pp_print_string ppf name)

let index_conv =
  conv_of_parser ~docv:"INDEX" Sb7_core.Index_intf.kind_of_string (fun ppf k ->
      Format.pp_print_string ppf (Sb7_core.Index_intf.kind_to_string k))

let cm_conv =
  conv_of_parser ~docv:"CM" Sb7_stm.Contention.policy_of_string (fun ppf p ->
      Format.pp_print_string ppf (Sb7_stm.Contention.policy_to_string p))

let threads =
  Arg.(value & opt int 1 & info [ "t"; "threads" ] ~docv:"N"
         ~doc:"Number of concurrent threads.")

let length =
  Arg.(value & opt float 10. & info [ "l"; "length" ] ~docv:"SECONDS"
         ~doc:"Benchmark length in seconds.")

let workload =
  Arg.(value & opt workload_conv Workload.Read_dominated
       & info [ "w"; "workload" ] ~docv:"r|rw|w"
           ~doc:"Workload type: read-dominated, read-write or \
                 write-dominated.")

let strategy =
  (* The listing is generated from the runtime registry so the CLI
     never drifts from what [Driver.run] accepts. *)
  let doc =
    Printf.sprintf "Synchronization strategy: %s."
      (String.concat " | " Sb7_runtime.Registry.names)
  in
  Arg.(value & opt string "coarse"
       & info [ "g"; "strategy" ] ~docv:"STRATEGY" ~doc)

let no_traversals =
  Arg.(value & flag & info [ "no-traversals" ]
         ~doc:"Disable long traversals.")

let no_sms =
  Arg.(value & flag & info [ "no-sms" ]
         ~doc:"Disable structure modification operations.")

let histograms =
  Arg.(value & flag & info [ "ttc-histograms" ]
         ~doc:"Print TTC (latency) histograms.")

let reduced =
  Arg.(value & flag & info [ "reduced" ]
         ~doc:"Restrict to the paper's §5 reduced operation set (used \
               for Figure 6).")

let scale =
  Arg.(value & opt scale_conv ("medium", Sb7_core.Parameters.medium)
       & info [ "scale" ] ~docv:"tiny|small|medium"
           ~doc:"Structure size preset (the paper uses medium).")

let index_kind =
  Arg.(value & opt index_conv Sb7_core.Index_intf.Avl
       & info [ "index" ] ~docv:"avl|flat|btree"
           ~doc:"Index implementation (conflict granularity under STM).")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Master random seed (runs are deterministic per seed and \
               thread count).")

let max_ops =
  Arg.(value & opt (some int) None & info [ "max-ops" ] ~docv:"N"
         ~doc:"Stop each thread after N operations instead of after the \
               time limit.")

let contention_manager =
  Arg.(value & opt cm_conv Sb7_stm.Contention.Polka
       & info [ "cm" ] ~docv:"CM"
           ~doc:"Contention manager for the astm strategy: aggressive | \
                 timid | karma | polka.")

let mix_conv =
  conv_of_parser ~docv:"LT:ST:OP:SM" Workload.mix_of_string (fun ppf m ->
      Format.pp_print_string ppf (Workload.mix_to_string m))

let only_op =
  Arg.(value & opt (some string) None & info [ "op" ] ~docv:"CODE"
         ~doc:"Run only the named operation (e.g. T1, ST4, SM7) in \
               isolation, OO7-style, instead of the workload mix.")

let mix =
  Arg.(value & opt mix_conv Workload.default_mix
       & info [ "mix" ] ~docv:"LT:ST:OP:SM"
           ~doc:"Relative category weights (default 5:40:45:10, the \
                 paper's Table 2).")

let warmup =
  Arg.(value & opt float 0. & info [ "warmup" ] ~docv:"SECONDS"
         ~doc:"Discarded run-in before the measured window.")

let csv_out =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
         ~doc:"Also write the run's summary and per-operation results as \
               CSV to FILE and FILE.ops.")

let minor_heap =
  Arg.(value & opt (some int) None & info [ "minor-heap" ] ~docv:"WORDS"
         ~doc:"Resize each domain's minor heap to WORDS (Gc.set \
               minor_heap_size, applied inside every worker domain — \
               sizes do not propagate to spawned domains). The size in \
               effect is recorded in the results either way, so \
               GC-pressure columns can be interpreted after the fact.")

let sanitize =
  Arg.(value & flag & info [ "sanitize" ]
         ~doc:"Run under the sanitizer: record event traces during the \
               measured window, check them for opacity, lockset, \
               structural and footprint findings, and print the verdict \
               (see docs/SANITIZER.md). Expect tracing overhead; \
               throughput numbers are not comparable to unsanitized runs.")

let run threads length workload strategy no_traversals no_sms histograms
    reduced (scale_name, scale) index_kind seed max_ops cm mix only_op
    warmup csv_out minor_heap sanitize =
  Sb7_stm.Astm.set_policy cm;
  let config =
    {
      B.threads;
      duration_s = length;
      warmup_s = warmup;
      max_ops;
      workload;
      mix;
      long_traversals = not no_traversals;
      structure_mods = not no_sms;
      reduced_ops = reduced;
      only_op;
      scale;
      scale_name;
      index_kind;
      seed;
      histograms;
      sanitize;
      minor_heap;
    }
  in
  match Sb7_harness.Driver.run ~runtime_name:strategy config with
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 2
  | Ok result ->
    Sb7_harness.Report.print Format.std_formatter result;
    (match csv_out with
    | None -> ()
    | Some path ->
      let write p f =
        let oc = open_out p in
        f oc [ result ];
        close_out oc
      in
      write path Sb7_harness.Csv.write_summary;
      write (path ^ ".ops") Sb7_harness.Csv.write_per_op;
      Format.eprintf "wrote %s and %s.ops@." path path);
    0

let cmd =
  let doc =
    "STMBench7: a benchmark for software transactional memory (OCaml \
     reproduction)"
  in
  let info = Cmd.info "stmbench7" ~doc in
  Cmd.v info
    Term.(
      const run $ threads $ length $ workload $ strategy $ no_traversals
      $ no_sms $ histograms $ reduced $ scale $ index_kind $ seed $ max_ops
      $ contention_manager $ mix $ only_op $ warmup $ csv_out
      $ minor_heap $ sanitize)

let () = exit (Cmd.eval' cmd)
