(** Offline analysis of sanitizer traces ({!Trace.dump}).

    Three analyses, selected per runtime by {!profile_of_runtime}:

    - {b opacity/snapshot}: replays every transaction attempt —
      committed, rolled back and aborted alike — and verifies it
      observed a consistent snapshot, and that the committed history is
      serializable (multi-version serialization graph acyclicity, plus
      per-tvar version-chain integrity: a fork in a chain is a lost
      update, and observing a version its own writer overwrote is an
      intermediate read). Runs for every runtime.
    - {b Eraser-style lockset races}: for the lock-based runtimes,
      every shared tvar's accesses must be pairwise ordered by a common
      lock held exclusively on at least one side: a named lock, or the
      tvar's own per-tvar lock (another tvar's lock orders nothing); the
      acquisition order of ranked locks is checked against the declared
      lock-order table (the order sb7-lint's R3 enforces statically).
    - {b structural sweep}: performed by the harness (it needs the live
      structure); its findings are attached with {!with_structural}.
    - {b footprint replay}: every traced access against the statically
      inferred footprint table (lib/core/op_footprint.ml); the harness
      replays each sanitized run and attaches the result with
      {!with_footprint}. *)

type profile = {
  rollback_on_failure : bool;
      (** the runtime rolls back effects when the operation raises; when
          false (coarse/medium/seq), a rolled-back attempt's writes are
          committed effects and are treated as such by the replay *)
  lockset : bool;  (** run the race / lock-order analyses *)
  ranked_locks : (string * int) list;
      (** lock name -> acquisition rank (lower first); locks outside
          the table (per-tvar locks) are exempt from order checking *)
}

(** Analysis profile of a shipped runtime, by registry name. Unknown
    names get the most conservative profile (no rollback, no locks). *)
val profile_of_runtime : string -> profile

(** The footprint replay's category: every read must fall in its
    operation's may-read ∪ may-write region set, every write in the
    may-write set. Tvars without a region note (created outside any
    [Region_ctx.with_region] bracket) and attempts whose operation the
    table does not know are counted, not flagged. Escapes are
    deduplicated per (operation, region). *)
type footprint = {
  checked : int;  (** accesses with a known region and operation *)
  unknown_region : int;  (** accesses to tvars with no region note *)
  unknown_op : int;
      (** accesses inside attempts whose operation is not in the table *)
  read_escapes : string list;  (** reads outside the may-read set *)
  write_escapes : string list;  (** writes outside the may-write set *)
}

type verdict = {
  domains : int;
  events : int;
  attempts : int;
  committed : int;
  aborted : int;  (** retried internally: conflict / lock restart *)
  rolled_back : int;  (** operation raised (e.g. [Operation_failed]) *)
  structural_commits : int;  (** effective attempts flagged structural *)
  opacity : string list;
  races : string list;
  lock_order : string list;
  structural : string list;
  footprint : footprint;  (** all zero until {!with_footprint} *)
}

val analyze : profile:profile -> Trace.dump -> verdict

(** Attach the harness's structural-sweep findings. *)
val with_structural : verdict -> string list -> verdict

(** [footprint ~table dump] replays [dump] against [table], which maps
    an operation name to its (may-read, may-write) bitmasks over
    [Region.to_int] bit positions (the reads mask must already include
    the writes). *)
val footprint : table:(string -> (int * int) option) -> Trace.dump -> footprint

(** Attach a footprint replay of the verdict's trace. *)
val with_footprint : verdict -> footprint -> verdict

(** No finding in any category: the one definition of a clean run. *)
val clean : verdict -> bool

(** Multi-line human report, one section per category. *)
val summary : verdict -> string

(** Single CSV field (no commas): ["off"] is the caller's business;
    here ["clean"] or
    ["flagged;opacity=N;races=N;order=N;structural=N;footprint=N"]. *)
val csv_cell : verdict -> string
