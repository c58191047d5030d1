(* GENERATED by `sb7-footprint gen` — do not edit by hand.

   Static may-read / may-write footprints of every registered benchmark
   operation over the abstract-region lattice (Sb7_runtime.Region),
   inferred from the typed AST of the sync-free core by lib/analysis's
   footprint pass. Regenerate with

     dune build @default bin/sb7_footprint.exe
     dune exec bin/sb7_footprint.exe -- gen _build/default/lib > lib/core/op_footprint.ml

   CI's footprint job fails when this committed table drifts from the
   generator's output. See docs/FOOTPRINT.md. *)

module Region = Sb7_runtime.Region

type entry = {
  fp_code : string;
  fp_reads : Region.t list;  (** may-read regions, writes excluded *)
  fp_writes : Region.t list;  (** may-write regions *)
  fp_structural : bool;
}

let table : entry list =
  [
    {
      fp_code = "OP1";
      fp_reads = [ Region.Indexes; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "OP10";
      fp_reads = [ Region.Indexes ];
      fp_writes = [ Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "OP11";
      fp_reads = [];
      fp_writes = [ Region.Manual ];
      fp_structural = false;
    };
    {
      fp_code = "OP12";
      fp_reads = [ Region.Indexes ];
      fp_writes = [ Region.Assemblies ];
      fp_structural = false;
    };
    {
      fp_code = "OP13";
      fp_reads = [ Region.Indexes ];
      fp_writes = [ Region.Assemblies ];
      fp_structural = false;
    };
    {
      fp_code = "OP14";
      fp_reads = [ Region.Indexes; Region.Assemblies ];
      fp_writes = [ Region.Composite_parts ];
      fp_structural = false;
    };
    {
      fp_code = "OP15";
      fp_reads = [];
      fp_writes = [ Region.Indexes; Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "OP2";
      fp_reads = [ Region.Indexes; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "OP3";
      fp_reads = [ Region.Indexes; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "OP4";
      fp_reads = [ Region.Manual ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "OP5";
      fp_reads = [ Region.Manual ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "OP6";
      fp_reads = [ Region.Indexes; Region.Assemblies ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "OP7";
      fp_reads = [ Region.Indexes; Region.Assemblies ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "OP8";
      fp_reads = [ Region.Indexes; Region.Assemblies; Region.Composite_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "OP9";
      fp_reads = [ Region.Indexes ];
      fp_writes = [ Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "Q6";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "Q7";
      fp_reads = [ Region.Indexes; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "SM1";
      fp_reads = [ Region.Composite_parts; Region.Documents ];
      fp_writes = [ Region.Indexes; Region.Atomic_parts ];
      fp_structural = true;
    };
    {
      fp_code = "SM2";
      fp_reads = [ Region.Atomic_parts; Region.Documents ];
      fp_writes = [ Region.Indexes; Region.Assemblies; Region.Composite_parts ];
      fp_structural = true;
    };
    {
      fp_code = "SM3";
      fp_reads = [ Region.Indexes ];
      fp_writes = [ Region.Assemblies; Region.Composite_parts ];
      fp_structural = true;
    };
    {
      fp_code = "SM4";
      fp_reads = [ Region.Indexes ];
      fp_writes = [ Region.Assemblies; Region.Composite_parts ];
      fp_structural = true;
    };
    {
      fp_code = "SM5";
      fp_reads = [];
      fp_writes = [ Region.Indexes; Region.Assemblies; Region.Composite_parts ];
      fp_structural = true;
    };
    {
      fp_code = "SM6";
      fp_reads = [];
      fp_writes = [ Region.Indexes; Region.Assemblies; Region.Composite_parts ];
      fp_structural = true;
    };
    {
      fp_code = "SM7";
      fp_reads = [];
      fp_writes = [ Region.Indexes; Region.Assemblies; Region.Composite_parts ];
      fp_structural = true;
    };
    {
      fp_code = "SM8";
      fp_reads = [];
      fp_writes = [ Region.Indexes; Region.Assemblies; Region.Composite_parts ];
      fp_structural = true;
    };
    {
      fp_code = "ST1";
      fp_reads = [ Region.Assemblies; Region.Composite_parts; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "ST10";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "ST2";
      fp_reads = [ Region.Assemblies; Region.Composite_parts; Region.Documents ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "ST3";
      fp_reads = [ Region.Indexes; Region.Assemblies; Region.Composite_parts; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "ST4";
      fp_reads = [ Region.Indexes; Region.Assemblies; Region.Composite_parts; Region.Documents ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "ST5";
      fp_reads = [ Region.Indexes; Region.Assemblies; Region.Composite_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "ST6";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "ST7";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Documents ];
      fp_structural = false;
    };
    {
      fp_code = "ST8";
      fp_reads = [ Region.Indexes; Region.Composite_parts; Region.Atomic_parts ];
      fp_writes = [ Region.Assemblies ];
      fp_structural = false;
    };
    {
      fp_code = "ST9";
      fp_reads = [ Region.Assemblies; Region.Composite_parts; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "T1";
      fp_reads = [ Region.Assemblies; Region.Composite_parts; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "T2a";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "T2b";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "T2c";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "T3a";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Indexes; Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "T3b";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Indexes; Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "T3c";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Indexes; Region.Atomic_parts ];
      fp_structural = false;
    };
    {
      fp_code = "T4";
      fp_reads = [ Region.Assemblies; Region.Composite_parts; Region.Documents ];
      fp_writes = [];
      fp_structural = false;
    };
    {
      fp_code = "T5";
      fp_reads = [ Region.Assemblies; Region.Composite_parts ];
      fp_writes = [ Region.Documents ];
      fp_structural = false;
    };
    {
      fp_code = "T6";
      fp_reads = [ Region.Assemblies; Region.Composite_parts; Region.Atomic_parts ];
      fp_writes = [];
      fp_structural = false;
    };
  ]

let find =
  let tbl =
    lazy
      (let t = Hashtbl.create (2 * List.length table) in
       List.iter (fun e -> Hashtbl.replace t e.fp_code e) table;
       t)
  in
  fun code -> Hashtbl.find_opt (Lazy.force tbl) code

(** (may-read, may-write) bitmasks over [Region.to_int] bit positions,
    in the shape the sanitizer's footprint replay consumes; the read
    mask includes the write mask. *)
let masks code =
  Option.map
    (fun e ->
      let mask rs =
        List.fold_left (fun m r -> m lor (1 lsl Region.to_int r)) 0 rs
      in
      let w = mask e.fp_writes in
      (mask e.fp_reads lor w, w))
    (find code)
