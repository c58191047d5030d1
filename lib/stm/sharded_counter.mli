(** Domain-sharded counter sets.

    A {!schema} declares counters, one line each: a name and how the
    per-domain shards combine (summed, or their maximum). Every output
    — [snapshot], [add], [reset], [to_assoc], [pp] — loops over the
    declarations, so adding a counter is one [declare].

    Recording is a plain store into the calling domain's shard: one
    cache-line-padded [int array] per domain, claimed from the set's
    registry through [Domain.DLS] on the domain's first record, so the
    hot path has no cross-core RMW. When the domain exits its shard
    returns to a free list {e without} being zeroed: counts survive
    domain exit and memory stays bounded by the peak number of
    concurrent domains. [snapshot] folds over all shards: exact once
    the writing domains have been joined, racy but non-tearing while
    they run (the fold is not a cross-shard snapshot). *)

type combine = Sum | Max
type schema

(** A declared counter: an index into its schema's shards. *)
type counter

val schema : unit -> schema

(** [declare schema name] adds a counter (default [~combine:Sum]);
    counters export in declaration order. Raises [Invalid_argument] on
    a duplicate name, or once [create] or [zero] has sealed the
    schema. *)
val declare : ?combine:combine -> schema -> string -> counter

(** A live counter set: one shard per recording domain. *)
type t

val create : schema -> t

(** The calling domain's shard, to batch several records behind one
    [Domain.DLS] lookup. *)
type shard

val shard : t -> shard
val incr : t -> counter -> unit

(** [bump shard c n] adds [n] to [c]. *)
val bump : shard -> counter -> int -> unit

(** [bump_max shard c n] raises [c] to at least [n] (for [Max]
    counters). *)
val bump_max : shard -> counter -> int -> unit

type snapshot

val snapshot : t -> snapshot
val reset : t -> unit

(** Every counter of the schema at 0. *)
val zero : schema -> snapshot

val get : snapshot -> counter -> int

(** Combine two snapshots of the schema's sets counter by counter,
    each by its declared [combine]. *)
val add : schema -> snapshot -> snapshot -> snapshot

(** [(name, value)] pairs in declaration order. *)
val to_assoc : schema -> snapshot -> (string * int) list

(** [name=value] pairs, space-separated, in declaration order. *)
val pp : schema -> Format.formatter -> snapshot -> unit
