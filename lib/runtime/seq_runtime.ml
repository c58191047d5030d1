(** The no-synchronization runtime: plain references, [atomic] runs the
    operation directly. Only safe single-threaded; used for setup
    validation, deterministic tests and as the bechamel micro-benchmark
    baseline. *)

module C = Sb7_stm.Sharded_counter

let name = "seq"

type 'a tvar = 'a ref

let make v = ref v
let read tv = !tv
let write tv v = tv := v

let schema = C.schema ()
let operations = C.declare schema "operations"
let commits = C.declare schema "commits"
let _aborts = C.declare schema "aborts" (* exported, never recorded *)
let counters = C.create schema

let atomic ~profile f =
  ignore (profile : Op_profile.t);
  C.incr counters operations;
  let result = f () in
  (* Counted only on normal return, mirroring the STM runtimes where an
     operation that raises (e.g. [Operation_failed]) rolls back and is
     not a commit. *)
  C.incr counters commits;
  result

(* Sequential execution never conflicts, so there is nothing to
   salvage: full-abort (trivially, no-abort) semantics. *)
let partial_abort = false
let checkpoint ~acc = ignore acc
let resume () = (0, 0)

let stats () = C.to_assoc schema (C.snapshot counters)
let reset_stats () = C.reset counters
