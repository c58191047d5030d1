(** Domain-local "current region" context.

    The sync-free core brackets every object-construction site with
    {!with_region}; the sanitizer's instrumented runtime reads
    {!current_code} when a tvar is created and records the tvar's
    region in the trace, giving the dynamic footprint cross-check
    ([sb7-sanitize footprint]) its sid -> region map. Nesting is
    supported (an atomic-part graph built inside a composite part) and
    exception-safe; outside any bracket the context reads as
    {!unknown}. *)

(** Code reported outside any {!with_region} bracket: -1. *)
val unknown : int

(** The current region's {!Region.to_int} code, or {!unknown}. *)
val current_code : unit -> int

(** [with_region r f] runs [f] with the current domain's region set to
    [r], restoring the previous region on return or exception. *)
val with_region : Region.t -> (unit -> 'a) -> 'a
