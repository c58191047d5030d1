(** sb7-footprint: static operation-footprint inference over the
    dune-generated typed ASTs of the sync-free core.

    [gen] emits the contents of lib/core/op_footprint.ml (the committed
    table the sanitizer's footprint replay checks runs against) and
    refuses on an unattributed write or on the profile verdict lint R4
    reports; [matrix] prints the 45x45 operation conflict matrix as
    text, JSON or Graphviz dot, and refuses on the same. See
    docs/FOOTPRINT.md. *)

open Cmdliner
module F = Sb7_analysis.Footprint

let load paths =
  (match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | [] -> ()
  | missing ->
    Printf.eprintf "sb7-footprint: no such file or directory: %s\n"
      (String.concat ", " missing);
    exit 2);
  let units = Sb7_analysis.Cmt_unit.scan paths in
  let fps = F.infer units in
  if fps = [] then begin
    Printf.eprintf
      "sb7-footprint: no registered operations found under %s (build the \
       repo first: dune build)\n"
      (String.concat ", " paths);
    exit 2
  end;
  List.sort (fun a b -> compare a.F.fp_code b.F.fp_code) fps

(* Refuse the table on the invariants it must satisfy: every write
   attributed to a region, and every declared profile honest by the
   verdict lint R4 reports ([Footprint.profile_violations]). *)
let check_violations fps =
  let unresolved =
    List.filter_map
      (fun fp ->
        if fp.F.fp_unresolved then
          Some
            (Printf.sprintf
               "%s: run function %s performs a write that could not be \
                attributed to any region"
               fp.F.fp_code fp.F.fp_run_name)
        else None)
      fps
  in
  match List.map snd (F.profile_violations fps) @ unresolved with
  | [] -> ()
  | vs ->
    List.iter (fun v -> Printf.eprintf "sb7-footprint: %s\n" v) vs;
    exit 2

(* --- gen --- *)

let emit_table fps =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "(* GENERATED by `sb7-footprint gen` — do not edit by hand.\n\n\
    \   Static may-read / may-write footprints of every registered \
     benchmark\n\
    \   operation over the abstract-region lattice (Sb7_runtime.Region),\n\
    \   inferred from the typed AST of the sync-free core by \
     lib/analysis's\n\
    \   footprint pass. Regenerate with\n\n\
    \     dune build @default bin/sb7_footprint.exe\n\
    \     dune exec bin/sb7_footprint.exe -- gen _build/default/lib > \
     lib/core/op_footprint.ml\n\n\
    \   CI's footprint job fails when this committed table drifts from the\n\
    \   generator's output. See docs/FOOTPRINT.md. *)\n\n";
  add "module Region = Sb7_runtime.Region\n\n";
  add
    "type entry = {\n\
    \  fp_code : string;\n\
    \  fp_reads : Region.t list;  (** may-read regions, writes excluded *)\n\
    \  fp_writes : Region.t list;  (** may-write regions *)\n\
    \  fp_structural : bool;\n\
     }\n\n";
  add "let table : entry list =\n  [\n";
  List.iter
    (fun fp ->
      let rl l =
        if l = [] then "[]"
        else
          Printf.sprintf "[ %s ]"
            (String.concat "; "
               (List.map
                  (fun r -> "Region." ^ F.region_constructor r)
                  l))
      in
      add
        "    {\n\
        \      fp_code = %S;\n\
        \      fp_reads = %s;\n\
        \      fp_writes = %s;\n\
        \      fp_structural = %b;\n\
        \    };\n"
        fp.F.fp_code (rl fp.F.fp_reads) (rl fp.F.fp_writes) fp.F.fp_structural)
    fps;
  add "  ]\n\n";
  add
    "let find =\n\
    \  let tbl =\n\
    \    lazy\n\
    \      (let t = Hashtbl.create (2 * List.length table) in\n\
    \       List.iter (fun e -> Hashtbl.replace t e.fp_code e) table;\n\
    \       t)\n\
    \  in\n\
    \  fun code -> Hashtbl.find_opt (Lazy.force tbl) code\n\n\
     (** (may-read, may-write) bitmasks over [Region.to_int] bit positions,\n\
    \    in the shape the sanitizer's footprint replay consumes; the read\n\
    \    mask includes the write mask. *)\n\
     let masks code =\n\
    \  Option.map\n\
    \    (fun e ->\n\
    \      let mask rs =\n\
    \        List.fold_left (fun m r -> m lor (1 lsl Region.to_int r)) 0 rs\n\
    \      in\n\
    \      let w = mask e.fp_writes in\n\
    \      (mask e.fp_reads lor w, w))\n\
    \    (find code)\n";
  Buffer.contents b

let gen paths =
  let fps = load paths in
  check_violations fps;
  print_string (emit_table fps);
  0

(* --- matrix --- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let matrix_json fps =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"schema\": \"sb7-footprint-matrix/1\",\n  \"operations\": [\n";
  List.iteri
    (fun i fp ->
      let rl l =
        String.concat ", "
          (List.map
             (fun r -> Printf.sprintf "\"%s\"" (F.region_to_string r))
             l)
      in
      add
        "    {\"code\": \"%s\", \"reads\": [%s], \"writes\": [%s], \
         \"structural\": %b, \"pure_read\": %b}%s\n"
        (json_escape fp.F.fp_code) (rl fp.F.fp_reads) (rl fp.F.fp_writes)
        fp.F.fp_structural (F.pure_read fp)
        (if i < List.length fps - 1 then "," else ""))
    fps;
  add "  ],\n  \"pairs\": [\n";
  let pairs = ref [] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b_ ->
          if j > i then
            pairs :=
              Printf.sprintf "    {\"a\": \"%s\", \"b\": \"%s\", \"class\": \"%s\"}"
                (json_escape a.F.fp_code) (json_escape b_.F.fp_code)
                (F.class_to_string (F.classify a b_))
              :: !pairs)
        fps)
    fps;
  add "%s\n  ]\n}\n" (String.concat ",\n" (List.rev !pairs));
  Buffer.contents b

let matrix_dot fps =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "graph sb7_conflicts {\n  layout=circo;\n  node [shape=box, fontsize=10];\n";
  List.iter
    (fun fp ->
      add "  %S [style=%s];\n" fp.F.fp_code
        (if F.pure_read fp then "solid" else "filled"))
    fps;
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b_ ->
          if j > i then
            match F.classify a b_ with
            | `Write_write ->
              add "  %S -- %S [color=red];\n" a.F.fp_code b_.F.fp_code
            | `Read_write ->
              add "  %S -- %S [color=orange];\n" a.F.fp_code b_.F.fp_code
            | `Read_read | `Disjoint -> ())
        fps)
    fps;
  add "}\n";
  Buffer.contents b

let matrix_text fps =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let count cls =
    let n = ref 0 in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b_ -> if j > i && F.classify a b_ = cls then incr n)
          fps)
      fps;
    !n
  in
  add "sb7-footprint: %d operations\n\n" (List.length fps);
  List.iter
    (fun fp ->
      let rl l = String.concat "," (List.map F.region_to_string l) in
      add "  %-5s %s reads={%s} writes={%s}\n" fp.F.fp_code
        (if fp.F.fp_structural then "SM"
         else if F.pure_read fp then "RO"
         else "RW")
        (rl fp.F.fp_reads) (rl fp.F.fp_writes))
    fps;
  add
    "\npairs: %d write-write, %d read-write, %d read-read, %d disjoint\n"
    (count `Write_write) (count `Read_write) (count `Read_read)
    (count `Disjoint);
  add "inferred pure-read set: %s\n"
    (String.concat " "
       (List.filter_map
          (fun fp -> if F.pure_read fp then Some fp.F.fp_code else None)
          fps));
  Buffer.contents b

let matrix paths json dot =
  let fps = load paths in
  check_violations fps;
  if json then print_string (matrix_json fps)
  else if dot then print_string (matrix_dot fps)
  else print_string (matrix_text fps);
  0

(* --- cmdliner plumbing --- *)

let paths_arg =
  let doc =
    "Directories scanned recursively for .cmt files (or .cmt files \
     directly)."
  in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH" ~doc)

let gen_cmd =
  let doc =
    "emit lib/core/op_footprint.ml to stdout: the per-operation region \
     table read by the sanitizer's footprint replay; exit 2 when a write \
     is unattributed or a declared profile is dishonest (the verdict lint \
     R4 reports)"
  in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const gen $ paths_arg)

let matrix_cmd =
  let doc = "print the operation conflict matrix (text, --json or --dot)" in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit a Graphviz conflict graph.")
  in
  Cmd.v (Cmd.info "matrix" ~doc)
    Term.(const matrix $ paths_arg $ json_arg $ dot_arg)

let cmd =
  let doc = "static read/write footprints of the STMBench7 operations" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Infers, from the typed AST of the sync-free core, which \
         abstract regions of the OO7 structure (indexes, assemblies, \
         composite parts, atomic-part graphs, documents, manual) each \
         registered operation may read and write; prints the pairwise \
         conflict matrix and generates the table consumed by the \
         sanitizer's footprint replay (lib/core/op_footprint.ml). Both \
         fail (exit 2) when an operation declared read-only reaches a \
         write, or one that reaches no write declares writes: the \
         verdict lint R4 reports.";
    ]
  in
  Cmd.group (Cmd.info "sb7_footprint" ~version:"1.0" ~doc ~man)
    [ gen_cmd; matrix_cmd ]

let () = exit (Cmd.eval' cmd)
