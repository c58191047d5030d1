(* Profile-directed read-only dispatch, shared by the STM runtimes.

   An operation whose profile declares no writes runs through the
   STM's [atomic_ro] fast path. Profiles are declarations, not proofs:
   if a declared-read-only operation does write, the STM raises
   [Stm_intf.Write_in_read_only], and we (1) record the operation name
   in a sticky per-STM registry, (2) bump the STM's [ro_demotions]
   counter, and (3) re-run the closure as an update transaction.
   Thereafter the operation starts directly in update mode — a
   mis-declared profile costs one restart, never wrong results.

   The registry is a lock-free immutable list under an [Atomic]: the
   hot path is a single [Atomic.get] that is [[]] for honest
   workloads, and the list stays as short as the number of lying
   operations (a handful at most), so membership is effectively O(1).
   [reset_stats] clears it together with the STM's counters, so
   harness/bench runs start from the declared profiles. *)

module Make (Stm : Sb7_stm.Stm_intf.S) = struct
  let name = Stm.name

  type 'a tvar = 'a Stm.tvar

  let make = Stm.make
  let read = Stm.read
  let write = Stm.write
  let demoted : string list Atomic.t = Atomic.make []

  let is_demoted name =
    match Atomic.get demoted with
    | [] -> false
    | l -> List.mem name l

  let rec demote name =
    let cur = Atomic.get demoted in
    if not (List.mem name cur) then
      if not (Atomic.compare_and_set demoted cur (name :: cur)) then
        demote name

  let atomic ~profile f =
    if Op_profile.read_only profile && not (is_demoted profile.Op_profile.op_name)
    then begin
      match Stm.atomic_ro f with
      | result -> result
      | exception Sb7_stm.Stm_intf.Write_in_read_only ->
        demote profile.Op_profile.op_name;
        Stm.record_ro_demotion ();
        Stm.atomic f
    end
    else Stm.atomic f

  (* Partial-abort capability, threaded through unchanged: checkpoints
     placed by an operation that ends up on the [atomic_ro] path are
     no-ops inside the STM (read-only transactions keep no read set to
     salvage), so the same operation body works on both paths. *)
  let partial_abort = Stm.partial_abort
  let checkpoint = Stm.checkpoint
  let resume = Stm.resume
  let stats () = Sb7_stm.Stm_stats.to_assoc (Stm.stats ())

  let reset_stats () =
    Atomic.set demoted [];
    Stm.reset_stats ()
end
