(** The ASTM-style STM as a benchmark runtime: every operation is one
    flat transaction, exactly the "straightforward approach of an
    average programmer" the paper evaluates. The lock profile is
    ignored; dispatch still goes through {!Ro_dispatch} for uniformity,
    but ASTM's [atomic_ro] is a documented pass-through to [atomic]
    (no read-only fast path — that IS the measured pathology), so
    read-only profiles change nothing and demotion never fires. *)

include Ro_dispatch.Make (Sb7_stm.Astm)
