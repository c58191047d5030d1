(** The encounter-time-locking STM as a benchmark runtime: writers
    lock each tvar at first write and update in place with an undo
    log, turning commit-time write conflicts into early aborts.
    Read-only operations go through {!Ro_dispatch}'s zero-log mode;
    checkpointed partial abort is supported over the undo log. *)

include Ro_dispatch.Make (Sb7_stm.Etl)
