(** The fine-grained locking strategy: strict two-phase locking at tvar
    granularity with no-wait deadlock avoidance and undo-based restart —
    the "ultimate baseline" the paper's §6 leaves as future work. See
    the implementation header for the full design discussion. *)

include Runtime_intf.S

(** Seeded-bug fixture for the sanitizer: while
    {!release_reads_early} is armed, a read takes its tvar's lock and
    releases it at once, so reads escape two-phase locking and race
    with writers, which the lockset checker must catch. For sanitizer
    tests and the [sb7_sanitize seeded] CI fixture only — never in
    benchmarks. *)
module Unsafe : sig
  val release_reads_early : unit -> unit
  val reset : unit -> unit
end
