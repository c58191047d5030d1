(** The NOrec STM as a benchmark runtime: value-based validation
    against a single global sequence lock, no per-tvar metadata.
    Read-only operations run through {!Ro_dispatch} in NOrec's
    zero-log snapshot mode (one global load per read); a lying
    profile is demoted to update mode after one clean restart. No
    partial abort — checkpoints are accepted as no-ops. *)

include Ro_dispatch.Make (Sb7_stm.Norec)
