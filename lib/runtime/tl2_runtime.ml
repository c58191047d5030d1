(** The TL2 STM as a benchmark runtime: every operation is one flat
    transaction. The lock domains of the profile are ignored (that is
    the STM's selling point), but [Op_profile.read_only] selects TL2's
    zero-log read-only mode, with adaptive demotion to an update
    transaction if the profile lied (see {!Ro_dispatch}). *)

include Ro_dispatch.Make (Sb7_stm.Tl2)
