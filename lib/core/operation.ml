(** Registry of all 45 STMBench7 operations with their category and
    lock-domain profile (used by the medium-grained strategy). *)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  module S = Setup.Make (R)
  module LT = Traversals.Make (R)
  module ST = Short_traversals.Make (R)
  module OP = Short_ops.Make (R)
  module SM = Structure_mods.Make (R)

  module P = Sb7_runtime.Op_profile

  type t = {
    code : string;
    category : Category.t;
    profile : P.t;
    run : Sb_random.t -> S.t -> int;
  }

  let read_only t = P.read_only t.profile

  let levels = P.all_assembly_levels
  let upper_levels = P.assembly_levels 2 P.max_assembly_levels
  let level1 = [ P.Assembly_level 1 ]

  let long_traversal code ?reads ?writes run =
    { code; category = Category.Long_traversal;
      profile = P.make ~name:code ?reads ?writes (); run }

  let short_traversal code ?reads ?writes run =
    { code; category = Category.Short_traversal;
      profile = P.make ~name:code ?reads ?writes (); run }

  let short_operation code ?reads ?writes run =
    { code; category = Category.Short_operation;
      profile = P.make ~name:code ?reads ?writes (); run }

  let structure_mod code run =
    { code; category = Category.Structure_modification;
      profile = P.make ~name:code ~structural:true (); run }

  (* Domain shorthands for the deep traversals. *)
  let deep_ro = levels @ [ P.Composite_parts; P.Atomic_parts ]
  let deep_doc = levels @ [ P.Composite_parts; P.Documents ]

  let all : t list =
    [
      (* Long traversals. *)
      long_traversal "T1" ~reads:deep_ro LT.t1;
      long_traversal "T2a" ~reads:deep_ro ~writes:[ P.Atomic_parts ] LT.t2a;
      long_traversal "T2b" ~reads:deep_ro ~writes:[ P.Atomic_parts ] LT.t2b;
      long_traversal "T2c" ~reads:deep_ro ~writes:[ P.Atomic_parts ] LT.t2c;
      long_traversal "T3a" ~reads:deep_ro ~writes:[ P.Atomic_parts ] LT.t3a;
      long_traversal "T3b" ~reads:deep_ro ~writes:[ P.Atomic_parts ] LT.t3b;
      long_traversal "T3c" ~reads:deep_ro ~writes:[ P.Atomic_parts ] LT.t3c;
      long_traversal "T4" ~reads:deep_doc LT.t4;
      long_traversal "T5" ~reads:(levels @ [ P.Composite_parts ])
        ~writes:[ P.Documents ] LT.t5;
      long_traversal "T6" ~reads:deep_ro LT.t6;
      long_traversal "Q6" ~reads:(levels @ [ P.Composite_parts ]) LT.q6;
      long_traversal "Q7" ~reads:[ P.Atomic_parts ] LT.q7;
      (* Short traversals. *)
      short_traversal "ST1" ~reads:deep_ro ST.st1;
      short_traversal "ST2" ~reads:deep_doc ST.st2;
      short_traversal "ST3"
        ~reads:(levels @ [ P.Composite_parts; P.Atomic_parts ])
        ST.st3;
      short_traversal "ST4"
        ~reads:(level1 @ [ P.Composite_parts; P.Documents ])
        ST.st4;
      short_traversal "ST5" ~reads:(level1 @ [ P.Composite_parts ]) ST.st5;
      short_traversal "ST6" ~reads:(levels @ [ P.Composite_parts ])
        ~writes:[ P.Atomic_parts ] ST.st6;
      short_traversal "ST7" ~reads:(levels @ [ P.Composite_parts ])
        ~writes:[ P.Documents ] ST.st7;
      short_traversal "ST8"
        ~reads:(level1 @ [ P.Composite_parts; P.Atomic_parts ])
        ~writes:upper_levels ST.st8;
      short_traversal "ST9" ~reads:deep_ro ST.st9;
      short_traversal "ST10" ~reads:(levels @ [ P.Composite_parts ])
        ~writes:[ P.Atomic_parts ] ST.st10;
      (* Short operations. *)
      short_operation "OP1" ~reads:[ P.Atomic_parts ] OP.op1;
      short_operation "OP2" ~reads:[ P.Atomic_parts ] OP.op2;
      short_operation "OP3" ~reads:[ P.Atomic_parts ] OP.op3;
      short_operation "OP4" ~reads:[ P.Manual ] OP.op4;
      short_operation "OP5" ~reads:[ P.Manual ] OP.op5;
      short_operation "OP6" ~reads:upper_levels OP.op6;
      short_operation "OP7" ~reads:(level1 @ [ P.Assembly_level 2 ]) OP.op7;
      short_operation "OP8" ~reads:(level1 @ [ P.Composite_parts ]) OP.op8;
      short_operation "OP9" ~writes:[ P.Atomic_parts ] OP.op9;
      short_operation "OP10" ~writes:[ P.Atomic_parts ] OP.op10;
      short_operation "OP11" ~writes:[ P.Manual ] OP.op11;
      short_operation "OP12" ~writes:upper_levels OP.op12;
      short_operation "OP13" ~reads:[ P.Assembly_level 2 ] ~writes:level1
        OP.op13;
      short_operation "OP14" ~reads:level1 ~writes:[ P.Composite_parts ]
        OP.op14;
      short_operation "OP15" ~writes:[ P.Atomic_parts ] OP.op15;
      (* Structure modifications. *)
      structure_mod "SM1" SM.sm1;
      structure_mod "SM2" SM.sm2;
      structure_mod "SM3" SM.sm3;
      structure_mod "SM4" SM.sm4;
      structure_mod "SM5" SM.sm5;
      structure_mod "SM6" SM.sm6;
      structure_mod "SM7" SM.sm7;
      structure_mod "SM8" SM.sm8;
    ]

  (* Off the hot path: a run with --op looks its operation up at
     startup, and the workers pick operations by array index. *)
  let by_code code = List.find_opt (fun op -> String.equal op.code code) all

  (** The Figure 6 "reduced benchmark" of the paper's §5: every
      operation that acquires very many objects in read mode, or
      modifies the manual, is disabled — what remains "resembles
      applications based on short queries over a partially static,
      tree-based data structure". Long traversals are excluded
      separately (they are off in that experiment anyway). *)
  let reduced_excluded = [ "ST5"; "OP4"; "OP5"; "OP11"; "Q7"; "OP3" ]

  let in_reduced_set op =
    not (List.mem op.code reduced_excluded)
end
