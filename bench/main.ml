(* Benchmark entry point: regenerates every table and figure of the
   paper's evaluation (plus this reproduction's ablations).

     dune exec bench/main.exe                 # everything, quick settings
     dune exec bench/main.exe -- fig4         # one experiment
     dune exec bench/main.exe -- --full all   # the paper's scale (slow)

   Experiments: table2 fig3 fig4 table3 fig6 t1-astm ablation-index
   ablation-cm ablation-stm alloc micro all *)

open Bench_common

let experiments : (string * (settings -> unit)) list =
  [
    ("table2", Experiments.table2);
    ("fig3", Experiments.fig3);
    ("fig4", Experiments.fig4);
    ("table3", Experiments.table3);
    ("fig6", Experiments.fig6);
    ("t1-astm", Experiments.t1_astm);
    ("quick", Experiments.quick);
    ("baseline", Experiments.baseline);
    ("oplat", Experiments.oplat);
    ("scaling", Experiments.scaling);
    ("domains", Experiments.domains);
    ("ablation-index", Experiments.ablation_index);
    ("ablation-cm", Experiments.ablation_cm);
    ("ablation-stm", Experiments.ablation_stm);
    ("alloc", Experiments.alloc);
    ("micro", (fun _ -> Micro.run ()));
    ("sanitize-overhead", (fun _ -> Micro.sanitize_overhead ()));
  ]

(* Pass/fail gates (exit 1 on failure) — run only when named explicitly,
   never as part of "all" or the default sweep. *)
let gates = [ "sanitize-overhead" ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--full] [--duration SECONDS] [--csv FILE] [--json] \
     [--max-overhead-pct P] [EXPERIMENT...]\n\
     experiments: %s all\n"
    (String.concat " " (List.map fst experiments));
  exit 2

let csv_path = ref None

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse settings selected = function
    | [] -> (settings, List.rev selected)
    | "--full" :: rest -> parse full selected rest
    | "--quick" :: rest -> parse quick selected rest
    | "--duration" :: v :: rest -> (
      match float_of_string_opt v with
      | Some d -> parse { settings with duration = d } selected rest
      | None -> usage ())
    | "--csv" :: path :: rest ->
      csv_path := Some path;
      parse settings selected rest
    | "--json" :: rest ->
      Bench_common.write_json := true;
      parse settings selected rest
    | "--max-overhead-pct" :: v :: rest -> (
      match float_of_string_opt v with
      | Some p ->
        Micro.overhead_max_pct := p;
        parse settings selected rest
      | None -> usage ())
    | "all" :: rest ->
      let all =
        List.filter (fun n -> not (List.mem n gates)) (List.map fst experiments)
      in
      parse settings (List.rev all @ selected) rest
    | name :: rest when List.mem_assoc name experiments ->
      parse settings (name :: selected) rest
    | _ -> usage ()
  in
  let settings, selected = parse quick [] args in
  let selected =
    if selected = [] then
      List.filter (fun n -> not (List.mem n gates)) (List.map fst experiments)
    else selected
  in
  Printf.printf
    "STMBench7 experiment harness — scale=%s, %.1fs per point, threads={%s}\n"
    settings.scale_name settings.duration
    (String.concat "," (List.map string_of_int settings.threads));
  Printf.printf
    "host_cores=%d: more domains than that time-slice, so expect \
     contention effects there, not parallel speedup\n%!"
    (Domain.recommended_domain_count ());
  List.iter (fun name -> (List.assoc name experiments) settings) selected;
  match !csv_path with
  | None -> ()
  | Some path -> dump_csv path
