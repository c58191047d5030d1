(** The medium-grained locking strategy of the paper (its Figure 5):

    - one read-write lock per lock domain: each of the 7 assembly
      levels, all composite parts, all atomic parts, all documents,
      and the manual;
    - one additional "structure" read-write lock, acquired in write
      mode by structure-modification operations (isolating them
      completely) and in read mode by every other operation.

    Domain locks are acquired in the canonical order defined by
    {!Op_profile.locking_plan}, so the strategy is deadlock-free. *)

module Rwlock = Sb7_rwlock.Rwlock
module C = Sb7_stm.Sharded_counter

let name = "medium"

type 'a tvar = 'a ref

let make v = ref v
let read tv = !tv
let write tv v = tv := v

let structure_lock = Rwlock.create ~name:"structure" ()

let domain_locks =
  Array.init Op_profile.num_domains (fun i ->
      Rwlock.create ~name:(Printf.sprintf "domain-%d" i) ())

let lock_of_domain d = domain_locks.(Op_profile.domain_rank d)

let schema = C.schema ()
let read_acquisitions = C.declare schema "read_acquisitions"
let write_acquisitions = C.declare schema "write_acquisitions"
let structural_ops = C.declare schema "structural_ops"
let commits = C.declare schema "commits"
let _aborts = C.declare schema "aborts" (* exported, never recorded *)
let counters = C.create schema

(* Seeded-bug fixture for the sanitizer (docs/SANITIZER.md): when set,
   the first write-mode entry of every locking plan is silently skipped
   in both acquire and release, so one declared write domain runs
   unprotected. The lockset checker must flag the resulting races;
   never set outside sanitizer fixtures. *)
module Unsafe = struct
  let dropping = ref false
  let drop_first_write_lock () = dropping := true
  let reset () = dropping := false
end

let drop_first_write plan =
  let rec go = function
    | [] -> []
    | (_, `Write) :: rest -> rest
    | entry :: rest -> entry :: go rest
  in
  go plan

let effective_plan plan =
  if !Unsafe.dropping then drop_first_write plan else plan

let acquire_plan plan =
  List.iter
    (fun (d, mode) ->
      match mode with
      | `Read ->
        C.incr counters read_acquisitions;
        Rwlock.acquire_read (lock_of_domain d)
      | `Write ->
        C.incr counters write_acquisitions;
        Rwlock.acquire_write (lock_of_domain d))
    plan

let release_plan plan =
  List.iter
    (fun (d, mode) ->
      match mode with
      | `Read -> Rwlock.release_read (lock_of_domain d)
      | `Write -> Rwlock.release_write (lock_of_domain d))
    (List.rev plan)

let atomic ~profile f =
  let structure_mode : Rwlock.mode =
    if profile.Op_profile.structural then begin
      C.incr counters structural_ops;
      Write
    end
    else Read
  in
  let plan = effective_plan (Op_profile.locking_plan profile) in
  Rwlock.acquire structure_lock structure_mode;
  acquire_plan plan;
  match f () with
  | result ->
    release_plan plan;
    Rwlock.release structure_lock structure_mode;
    (* Only normal returns count, mirroring the STM runtimes where an
       operation that raises rolls back and is not a commit. *)
    C.incr counters commits;
    result
  | exception exn ->
    release_plan plan;
    Rwlock.release structure_lock structure_mode;
    raise exn

(* Lock-based execution holds its locks for the whole operation and
   rolls back wholesale on restart: no partial abort. *)
let partial_abort = false
let checkpoint ~acc = ignore acc
let resume () = (0, 0)

let stats () = C.to_assoc schema (C.snapshot counters)
let reset_stats () = C.reset counters
