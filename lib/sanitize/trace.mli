(** Per-domain, per-transaction event traces.

    Each worker domain appends fixed-shape integer event records to its
    own growable buffer ([Domain.DLS]-held, registered once under a
    mutex), so recording is lock-free and allocation-free on the hot
    path. The offline checker ({!Checker}) replays the dumped streams.

    Toggle {!enable}/{!disable} only while quiesced (no worker domains
    running): the flag is plain shared state published by the
    spawn/join happens-before edges, mirroring {!Sb7_rwlock.Lock_hooks}. *)

(** {1 Event encoding}

    Events are flat int records, tag first:

    - [tag_begin; flags; ts; op] — transaction attempt starts ([flags]:
      bit 0 = declared read-only, bit 1 = structural; [op] an id
      interned by {!intern_op}, 0 = unknown)
    - [tag_read; sid; wid] — read of tvar [sid] observing version [wid]
    - [tag_write; sid; wid; prev] — write creating version [wid] on
      top of version [prev]
    - [tag_commit; ts] — the attempt committed
    - [tag_rollback] — the attempt rolled back with an exception
    - [tag_acquire; uid; excl] / [tag_release; uid; excl] — lock
      transitions (from {!Sb7_rwlock.Lock_hooks}). An anonymous
      acquire ([uid >= anonymous_base], a per-tvar lock) guards the
      tvar of the next access in its stream when that access is the
      very next event, and then guards only that tvar, until its release
    - [tag_partial; reads_kept; writes_kept] — the attempt partially
      aborted to a checkpoint: its first [reads_kept] read events and
      [writes_kept] write events stand, every later access it logged
      was rolled back, and the SAME attempt continues after this event
      (no new [tag_begin])

    An attempt that ends with neither commit nor rollback before the
    next [tag_begin] in the same stream was aborted and retried by the
    runtime (conflict, lock restart, read-only demotion). *)

val tag_begin : int
val tag_read : int
val tag_write : int
val tag_commit : int
val tag_rollback : int
val tag_acquire : int
val tag_release : int
val tag_partial : int

val flag_ro : int
val flag_structural : int

(** A quiesced snapshot of all recorded streams, one per domain that
    recorded anything, plus the registered lock names, the interned
    operation names, and the [(sid, region)] tvar region notes — see
    {!note_region}. *)
type dump = {
  streams : int array array;
  locks : (int * string) list;
  ops : (int * string) list;
  regions : (int * int) array;
}

(** {1 Recording} *)

val enabled : unit -> bool

(** The raw recording flag behind {!enabled}, exposed so the wrapper's
    per-access check is a single load with no call — never write it;
    use {!enable}/{!disable}. *)
val on : bool ref

(** Also enables {!Sb7_rwlock.Lock_hooks} (hooks are installed on the
    first call). Call only while quiesced. *)
val enable : unit -> unit

val disable : unit -> unit

(** Drop all recorded events, and free the event buffers of exited
    domains ({!dump} reads them until then). Quiesced only. *)
val reset : unit -> unit

(** Drop all region notes. Each [Sanitize.Make] instance restarts its
    sid allocator, so a second sanitized run in the same process would
    otherwise read the previous structure's stale notes; the harness
    calls this before building a structure. Exited domains' note
    buffers are freed. Quiesced only. *)
val reset_notes : unit -> unit

(** Fresh global write id (> 0). Version id 0 is reserved for values
    written while tracing was off (initial values included). *)
val next_wid : unit -> int

(** Intern an operation name for begin events. Mutex-protected: call
    once per outer [atomic], not per event. Ids are > 0. *)
val intern_op : string -> int

(** Record the abstract region ([Region.to_int] code, or
    [Region_ctx.unknown]) of a freshly created tvar. Unlike the event
    stream this records regardless of {!enabled} and survives {!reset}:
    the structure built during setup outlives both. *)
val note_region : sid:int -> region:int -> unit

val on_begin : ro:bool -> structural:bool -> op:int -> unit
val on_read : sid:int -> wid:int -> unit
val on_write : sid:int -> wid:int -> prev:int -> unit
val on_commit : unit -> unit
val on_rollback : unit -> unit

(** Record a partial abort: the running attempt kept its first
    [reads_kept] read and [writes_kept] write events and continues. *)
val on_partial : reads_kept:int -> writes_kept:int -> unit

(** Snapshot the streams. Quiesced only. *)
val dump : unit -> dump

(** {1 Persistence} — traces are saved as CI artifacts on failure. *)

val save : string -> dump -> unit
val load : string -> dump
