(** The LSA multi-version STM as a benchmark runtime: read-only
    operations run as snapshot transactions (no validation, no aborts
    against writers), update operations as TL2-like update
    transactions. The choice goes through {!Ro_dispatch}, so an
    operation that writes despite a read-only profile is demoted to
    update mode after one clean restart instead of failing. *)

include Ro_dispatch.Make (Sb7_stm.Lsa)
