(** Profile-directed read-only dispatch with adaptive fallback: the
    complete runtime over one STM, shared by the STM runtimes.

    Operations whose {!Op_profile} declares no writes run through the
    STM's [atomic_ro] fast path. A declared-read-only operation that
    actually writes trips [Stm_intf.Write_in_read_only]; the dispatcher
    records the operation in a sticky demotion registry, bumps the
    STM's [ro_demotions] counter, and re-runs the closure as an update
    transaction. Thereafter the operation starts directly in update
    mode: a mis-declared profile costs one restart, never wrong
    results. *)

module Make (Stm : Sb7_stm.Stm_intf.S) : sig
  (** [atomic ~profile f] dispatches [f] to [Stm.atomic_ro] when
      [Op_profile.read_only profile] holds and the operation has not
      been demoted, to [Stm.atomic] otherwise. The checkpoint
      capability is forwarded from the STM unchanged: on the
      [atomic_ro] path the STM ignores checkpoints (no read set to
      salvage), which is exactly right — those transactions never
      conflict-abort. [stats] is the STM's {!Sb7_stm.Stm_stats}
      snapshot; [reset_stats] also clears the demotion registry. *)
  include Runtime_intf.S with type 'a tvar = 'a Stm.tvar
end
