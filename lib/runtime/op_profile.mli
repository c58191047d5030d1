(** Lock-domain footprint of a benchmark operation.

    The medium-grained strategy of the paper (its Figure 5) partitions
    the shared structure into lockable domains: one per assembly level,
    one for all composite parts, one for all atomic parts, one for all
    documents and one for the manual, plus a global "structure" lock
    acquired in write mode by structure-modification operations and in
    read mode by everything else. An operation declares which domains
    it reads and writes; lock-based runtimes acquire the corresponding
    locks in a fixed canonical order, STM runtimes ignore the profile
    (or, for the LSA runtime, use only {!read_only}). *)

type domain =
  | Assembly_level of int  (** 1 = base assemblies … 7 = root *)
  | Composite_parts
  | Atomic_parts
  | Documents
  | Manual

val max_assembly_levels : int

val domain_to_string : domain -> string

(** Position in the canonical (deadlock-free) acquisition order;
    distinct per domain, in [0, num_domains). *)
val domain_rank : domain -> int

val num_domains : int

type t = {
  op_name : string;
  reads : domain list;  (** domains accessed read-only *)
  writes : domain list;  (** domains updated; takes precedence over reads *)
  structural : bool;  (** structure-modification operation *)
  plan : (domain * [ `Read | `Write ]) list;
      (** {!locking_plan}, computed once by {!make} *)
}

(** [assembly_levels lo hi] — the domains for levels [lo..hi]. *)
val assembly_levels : int -> int -> domain list

val all_assembly_levels : domain list

val make :
  name:string ->
  ?reads:domain list ->
  ?writes:domain list ->
  ?structural:bool ->
  unit ->
  t

(** Not structural and declares no writes. *)
val read_only : t -> bool

(** Domains with their lock modes, deduplicated (write wins), sorted in
    canonical acquisition order. Empty for structural operations: the
    exclusive structure lock already isolates them. Computed once, by
    {!make}. *)
val locking_plan : t -> (domain * [ `Read | `Write ]) list
