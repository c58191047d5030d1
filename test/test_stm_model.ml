(* Model-based property tests: random transaction programs executed
   single-threaded through each STM (and the fine-grained 2PL runtime)
   must behave exactly like a plain array of integers — including
   read-your-writes within a transaction and all-or-nothing rollback on
   abort. *)

let n_cells = 8

type instr =
  | Read of int (* cell *)
  | Write of int * int (* cell, value *)
  | Incr of int (* read-modify-write *)

type program = {
  instrs : instr list;
  abort : bool; (* raise after the last instruction *)
}

let instr_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun c -> Read c) (int_bound (n_cells - 1)));
        ( 2,
          map2 (fun c v -> Write (c, v)) (int_bound (n_cells - 1))
            (int_bound 1000) );
        (1, map (fun c -> Incr c) (int_bound (n_cells - 1)));
      ])

let program_gen =
  QCheck.Gen.(
    map2
      (fun instrs abort -> { instrs; abort })
      (list_size (int_bound 20) instr_gen)
      (frequency [ (3, return false); (1, return true) ]))

let instr_print = function
  | Read c -> Printf.sprintf "R%d" c
  | Write (c, v) -> Printf.sprintf "W%d=%d" c v
  | Incr c -> Printf.sprintf "I%d" c

let program_print p =
  Printf.sprintf "[%s]%s"
    (String.concat ";" (List.map instr_print p.instrs))
    (if p.abort then "!" else "")

let programs_arbitrary =
  QCheck.make
    QCheck.Gen.(list_size (int_bound 25) program_gen)
    ~print:(fun ps -> String.concat " " (List.map program_print ps))

exception Rollback

(* The reference semantics: an int array with transactional behaviour
   simulated by copy. Returns (final state, read outputs). *)
let run_model programs =
  let state = Array.make n_cells 0 in
  let outputs = ref [] in
  List.iter
    (fun p ->
      let view = Array.copy state in
      let local = ref [] in
      List.iter
        (fun instr ->
          match instr with
          | Read c -> local := view.(c) :: !local
          | Write (c, v) -> view.(c) <- v
          | Incr c -> view.(c) <- view.(c) + 1)
        p.instrs;
      if not p.abort then begin
        Array.blit view 0 state 0 n_cells;
        outputs := !local @ !outputs
      end)
    programs;
  (Array.to_list state, !outputs)

(* Execute through an implementation with [atomic], [read], [write]. *)
let run_impl ~atomic ~read ~write ~make programs =
  let cells = Array.init n_cells (fun _ -> make 0) in
  let outputs = ref [] in
  List.iter
    (fun p ->
      match
        atomic (fun () ->
            let local = ref [] in
            List.iter
              (fun instr ->
                match instr with
                | Read c -> local := read cells.(c) :: !local
                | Write (c, v) -> write cells.(c) v
                | Incr c -> write cells.(c) (read cells.(c) + 1))
              p.instrs;
            if p.abort then raise Rollback;
            !local)
      with
      | local -> outputs := local @ !outputs
      | exception Rollback -> ())
    programs;
  (Array.to_list (Array.map read cells), !outputs)

let stm_prop name ~atomic ~read ~write ~make =
  QCheck.Test.make ~name ~count:300 programs_arbitrary (fun programs ->
      run_impl ~atomic ~read ~write ~make programs = run_model programs)

let tl2_prop =
  stm_prop "tl2 matches the sequential model" ~atomic:Sb7_stm.Tl2.atomic
    ~read:Sb7_stm.Tl2.read ~write:Sb7_stm.Tl2.write ~make:Sb7_stm.Tl2.make

let astm_prop =
  stm_prop "astm matches the sequential model" ~atomic:Sb7_stm.Astm.atomic
    ~read:Sb7_stm.Astm.read ~write:Sb7_stm.Astm.write ~make:Sb7_stm.Astm.make

let lsa_prop =
  stm_prop "lsa matches the sequential model" ~atomic:Sb7_stm.Lsa.atomic
    ~read:Sb7_stm.Lsa.read ~write:Sb7_stm.Lsa.write ~make:Sb7_stm.Lsa.make

let norec_prop =
  stm_prop "norec matches the sequential model" ~atomic:Sb7_stm.Norec.atomic
    ~read:Sb7_stm.Norec.read ~write:Sb7_stm.Norec.write
    ~make:Sb7_stm.Norec.make

let etl_prop =
  stm_prop "etl matches the sequential model" ~atomic:Sb7_stm.Etl.atomic
    ~read:Sb7_stm.Etl.read ~write:Sb7_stm.Etl.write ~make:Sb7_stm.Etl.make

let fine_prop =
  let module F = Sb7_runtime.Fine_runtime in
  let profile =
    Sb7_runtime.Op_profile.make ~name:"model"
      ~writes:[ Sb7_runtime.Op_profile.Manual ] ()
  in
  stm_prop "fine 2PL matches the sequential model"
    ~atomic:(fun f -> F.atomic ~profile f)
    ~read:F.read ~write:F.write ~make:F.make

(* Snapshot transactions must agree with update transactions on pure
   reads. *)
let lsa_snapshot_prop =
  QCheck.Test.make ~name:"lsa snapshot reads = committed state" ~count:300
    programs_arbitrary (fun programs ->
      let module L = Sb7_stm.Lsa in
      let cells = Array.init n_cells (fun _ -> L.make 0) in
      List.iter
        (fun p ->
          match
            L.atomic (fun () ->
                List.iter
                  (fun instr ->
                    match instr with
                    | Read c -> ignore (L.read cells.(c))
                    | Write (c, v) -> L.write cells.(c) v
                    | Incr c -> L.write cells.(c) (L.read cells.(c) + 1))
                  p.instrs;
                if p.abort then raise Rollback)
          with
          | () -> ()
          | exception Rollback -> ())
        programs;
      let direct = Array.to_list (Array.map L.read cells) in
      let snapshot =
        L.atomic_snapshot (fun () ->
            Array.to_list (Array.map L.read cells))
      in
      direct = snapshot)

let () =
  Alcotest.run "stm_model"
    [
      ( "model",
        List.map QCheck_alcotest.to_alcotest
          [
            tl2_prop;
            astm_prop;
            lsa_prop;
            norec_prop;
            etl_prop;
            fine_prop;
            lsa_snapshot_prop;
          ] );
    ]
