(** Shared definitions for the benchmark core. *)

(** Raised by an operation that cannot proceed, per the STMBench7
    specification (e.g. a random-ID index lookup misses, an ID pool is
    exhausted, or a structural precondition fails). The benchmark
    counts these as failed operations; they are normal behaviour, not
    errors. *)
exception Operation_failed of string

(** Fail the running operation. [msg] is a prebuilt string, not a
    format: up to half of a run's operations fail by specification, so
    the failure path formats nothing. *)
let fail msg = raise (Operation_failed msg)
