(** Configuration for the sb7-lint rules.

    The configuration is a plain value so that the test suite can point
    the same engine at fixture modules; {!default} describes this
    repository: the sync-free core lives in [Sb7_core__*], operation
    bodies are registered in [Sb7_core__Operation], and the lock-based
    runtimes declare their lock classes and ordering here. *)

(** Scope of rule R1 (runtime-bypass): compilation units whose mutable
    state must flow through the [Runtime] functor. *)
type r1 = {
  r1_prefixes : string list;  (** units matching any prefix are checked *)
  r1_exempt_units : string list;
      (** units excluded even when a prefix matches (e.g. the library
          wrapper alias module) *)
  r1_dls_prefixes : string list;
      (** units where any [Domain.DLS] identifier is reported
          ([raw-dls]) unless the unit is allowlisted; wider than
          [r1_prefixes] because per-domain state is a concern in the
          STM and runtime layers too, not just the sync-free core *)
  r1_dls_allowed_units : string list;
      (** units allowed to use [Domain.DLS] (sharded counter sets, the
          chunked id allocator, per-domain transaction contexts) *)
}

(** Scope of rule R2 (irrevocable effects): effects are forbidden in
    every unit reachable from [r2_seeds] in the module-reference graph,
    restricted to units matching [r2_universe_prefixes]. *)
type r2 = {
  r2_seeds : string list;
  r2_universe_prefixes : string list;
}

(** Per-module lock discipline specification for rule R3.

    Lock classes are abstract names ([structure], [domains], ...). A
    direct [Rwlock.acquire*] call is classified by the head identifier
    of its lock argument via [r3_classes]; module-local helpers that
    acquire or release a whole class at once are declared in
    [r3_acquire_helpers] / [r3_release_helpers]. *)
type r3_spec = {
  r3_unit : string;  (** compilation unit this spec applies to *)
  r3_classes : (string * string) list;
      (** identifier (lock value or lock-producing function) -> class *)
  r3_acquire_helpers : (string * string) list;  (** function -> class *)
  r3_release_helpers : (string * string) list;  (** function -> class *)
  r3_order : string list;
      (** lock-order table: classes must be first-acquired in this
          order within any single function *)
  r3_deferred_acquires : string list;
      (** functions that acquire per-object locks and defer the release
          to a bulk-release function (dynamic 2PL) *)
  r3_bulk_release : string list;
      (** functions releasing everything acquired by deferred helpers;
          some function of the module must call one on both the normal
          and the exceptional path *)
  r3_must_restart : (string * string) list;
      (** (function, exception): the function must contain
          [raise <exception>] — no-wait acquisition discipline *)
  r3_forbid_blocking : bool;
      (** forbid blocking primitives ([Rwlock.acquire*], [Mutex.lock],
          [Condition.wait]) anywhere in the module *)
}

(** Scope of rule R4 (profile honesty) and of the footprint inference
    (sb7-footprint), which decides it: operations registered in
    [r4_registry_units] by one of [r4_profiled_builders] with no (or an
    empty) [~writes] argument are declared read-only, and their run
    function must not reach a write site — a configured write
    identifier, or an index mutator of [Footprint.config.fp_write_fields]
    — through the value-reference graph of units matching
    [r4_universe_prefixes]; a declared writer must reach one. An empty
    [r4_registry_units] disables the rule. *)
type r4 = {
  r4_registry_units : string list;
  r4_profiled_builders : string list;
      (** builder functions whose applications register a profiled
          operation; first positional string literal is the code, last
          positional identifier the run function *)
  r4_structural_builders : string list;
      (** builders whose operations are structural (never read-only):
          R4 skips them, the footprint inference marks them *)
  r4_universe_prefixes : string list;
  r4_write_idents : string list;
      (** fully-qualified identifiers that perform a transactional
          write (as printed by [Path.name], e.g. ["R.write"]) *)
}

(** Scope of rule R6 (tvar-escape): inside function literals passed to
    one of [r6_atomic_idents], a closure capturing atomic-scope
    bindings — or a transaction-local mutable value — must not be
    stored through a sink that outlives the block. A sink is
    [(identifier, value_arg, target_arg)]: the positional index of the
    stored value, and (for mutable-cell sinks) of the mutated target —
    a store into a target bound inside the same atomic scope dies with
    the transaction and is exempt; [None] marks tvar sinks, which
    always outlive. *)
type r6 = {
  r6_prefixes : string list;
  r6_atomic_idents : string list;
  r6_sinks : (string * int * int option) list;
}

(** Scope of rule R5 (obj-use): unsafe [Obj.*] primitives are forbidden
    in every unit matching [r5_prefixes] except at the sanctioned sites
    listed in [r5_allowed]. *)
type r5 = {
  r5_prefixes : string list;
  r5_allowed : (string * string option) list;
      (** (unit, binding): [None] sanctions the whole unit, [Some f]
          only the top-level binding [f] within it; every sanctioned
          site must be justified in DESIGN.md *)
}

(** Scope of rule R7 (domain-escape): units matching [r7_prefixes] are
    summarized into the escape graph; roots are every closure passed to
    [Domain.spawn] plus [r7_roots] — the cross-domain entry points that
    are only ever called through functor parameters (a runtime's
    [atomic]/[read]/[write]), which the value-reference graph cannot
    see. [(unit, None)] roots every binding of the unit. *)
type r7 = {
  r7_prefixes : string list;
  r7_roots : (string * string option) list;
  r7_confined_types : (string * string) list;
      (** type key -> justification: values of these types are
          per-domain contexts (transaction descriptors, per-worker
          stats); accesses through them are DLS-confined even when the
          value arrives as a parameter *)
  r7_tvar_types : (string * string) list;
      (** type key -> justification: the substrates' tvar records,
          whose mutable fields are guarded by their own versioned-lock
          commit protocol rather than a Mutex *)
  r7_allowed : (string * string option * string) list;
      (** (unit, binding, justification): sanctioned shared-mutable
          sites, binding-granular like the R5 Obj list; [None] covers
          the whole unit. Every entry must carry a written
          justification. *)
}

type t = {
  r1 : r1;
  r2 : r2;
  r3 : r3_spec list;
  r4 : r4;
  r5 : r5;
  r6 : r6;
  r7 : r7;
  strict_local : bool;
      (** when true, R1 also reports provably transaction-local mutable
          state (notices): useful to audit a module for full purity *)
}

let spec_for t unit_name =
  List.find_opt (fun s -> s.r3_unit = unit_name) t.r3

let in_r1_scope t unit_name =
  List.exists (fun p -> String.starts_with ~prefix:p unit_name) t.r1.r1_prefixes
  && not (List.mem unit_name t.r1.r1_exempt_units)

let in_r1_dls_scope t unit_name =
  List.exists
    (fun p -> String.starts_with ~prefix:p unit_name)
    t.r1.r1_dls_prefixes
  && not (List.mem unit_name t.r1.r1_dls_allowed_units)

(** R5 applicability for a unit: [`Skip] (out of scope or sanctioned
    wholesale), or [`Check allowed] with the top-level bindings that may
    use [Obj.*] there. *)
let r5_scope t unit_name =
  if
    not
      (List.exists
         (fun p -> String.starts_with ~prefix:p unit_name)
         t.r5.r5_prefixes)
  then `Skip
  else if
    List.exists
      (fun (u, b) -> String.equal u unit_name && b = None)
      t.r5.r5_allowed
  then `Skip
  else
    `Check
      (List.filter_map
         (fun (u, b) -> if String.equal u unit_name then b else None)
         t.r5.r5_allowed)

let in_r6_scope t unit_name =
  List.exists
    (fun p -> String.starts_with ~prefix:p unit_name)
    t.r6.r6_prefixes

let in_r2_universe t unit_name =
  List.exists
    (fun p -> String.starts_with ~prefix:p unit_name)
    t.r2.r2_universe_prefixes

let in_r7_scope t unit_name =
  List.exists
    (fun p -> String.starts_with ~prefix:p unit_name)
    t.r7.r7_prefixes

(* --- Rule-family selection (--rules) --- *)

let known_rule_families = [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7" ]

(** Rule ids in [rules] that are not a known family, preserving order. *)
let unknown_rule_families rules =
  List.filter (fun r -> not (List.mem r known_rule_families)) rules

(** Restrict [t] to the given families by emptying the scopes of every
    other rule. An empty list means "run everything". *)
let narrow t = function
  | [] -> t
  | rules ->
    {
      t with
      r1 =
        (if List.mem "R1" rules then t.r1
         else { t.r1 with r1_prefixes = []; r1_dls_prefixes = [] });
      r2 =
        (if List.mem "R2" rules then t.r2 else { t.r2 with r2_seeds = [] });
      r3 = (if List.mem "R3" rules then t.r3 else []);
      r4 =
        (if List.mem "R4" rules then t.r4
         else { t.r4 with r4_registry_units = [] });
      r5 =
        (if List.mem "R5" rules then t.r5 else { t.r5 with r5_prefixes = [] });
      r6 =
        (if List.mem "R6" rules then t.r6 else { t.r6 with r6_prefixes = [] });
      r7 =
        (if List.mem "R7" rules then t.r7 else { t.r7 with r7_prefixes = [] });
    }

(** The repository configuration enforced by [dune build @lint]. *)
let default =
  {
    r1 =
      {
        r1_prefixes = [ "Sb7_core__" ];
        (* The wrapper module is dune-generated aliases only. *)
        r1_exempt_units = [ "Sb7_core" ];
        r1_dls_prefixes =
          [ "Sb7_core__"; "Sb7_stm__"; "Sb7_runtime__"; "Sb7_sanitize__" ];
        (* The blessed per-domain-state modules: the sharded counter
           sets, the chunked tvar-id allocator, the shared STM
           transaction engine (TL2/LSA/NOrec/ETL), ASTM's and the fine
           locks' per-domain transaction contexts, the sanitizer's
           event buffers and nesting-depth tracking, and the
           current-region bracket feeding the footprint replay. *)
        r1_dls_allowed_units =
          [
            "Sb7_stm__Sharded_counter";
            "Sb7_stm__Tvar_id";
            "Sb7_stm__Txdesc";
            "Sb7_stm__Astm";
            "Sb7_runtime__Fine_runtime";
            "Sb7_runtime__Tournament_runtime";
            "Sb7_runtime__Region_ctx";
            "Sb7_sanitize__Trace";
            "Sb7_sanitize__Sanitize";
          ];
      };
    r2 =
      {
        (* Every benchmark operation body is registered in Operation;
           anything it reaches may run inside an abortable transaction. *)
        r2_seeds = [ "Sb7_core__Operation" ];
        r2_universe_prefixes = [ "Sb7_core__" ];
      };
    r3 =
      [
        {
          r3_unit = "Sb7_runtime__Medium_runtime";
          r3_classes =
            [ ("structure_lock", "structure"); ("lock_of_domain", "domains") ];
          r3_acquire_helpers = [ ("acquire_plan", "domains") ];
          r3_release_helpers = [ ("release_plan", "domains") ];
          (* Figure 5 of the paper: the structure lock is acquired
             before any domain lock, domain locks in canonical rank
             order (enforced dynamically by Op_profile.locking_plan). *)
          r3_order = [ "structure"; "domains" ];
          r3_deferred_acquires = [];
          r3_bulk_release = [];
          r3_must_restart = [];
          r3_forbid_blocking = false;
        };
        {
          r3_unit = "Sb7_runtime__Fine_runtime";
          r3_classes = [];
          r3_acquire_helpers = [];
          r3_release_helpers = [ ("release_plan", "domains") ];
          r3_order = [];
          (* Strict 2PL: locks are taken on first access and released
             in bulk at commit/abort by release_all. *)
          r3_deferred_acquires = [ "lock_for_read"; "lock_for_write" ];
          r3_bulk_release = [ "release_all" ];
          (* No-wait deadlock avoidance: a failed acquisition must
             restart the operation, never block. *)
          r3_must_restart =
            [ ("lock_for_read", "Restart"); ("lock_for_write", "Restart") ];
          r3_forbid_blocking = true;
        };
        {
          r3_unit = "Sb7_runtime__Coarse_runtime";
          (* Uses the exception-safe Rwlock.with_lock wrapper only. *)
          r3_classes = [ ("global", "global") ];
          r3_acquire_helpers = [];
          r3_release_helpers = [ ("release_plan", "domains") ];
          r3_order = [ "global" ];
          r3_deferred_acquires = [];
          r3_bulk_release = [];
          r3_must_restart = [];
          r3_forbid_blocking = false;
        };
      ];
    r4 =
      {
        (* All 45 operations register in Operation through these four
           builders; a missing ~writes makes the profile read-only and
           the runtimes dispatch it through the zero-log path. *)
        r4_registry_units = [ "Sb7_core__Operation" ];
        r4_profiled_builders =
          [ "long_traversal"; "short_traversal"; "short_operation" ];
        r4_structural_builders = [ "structure_mod" ];
        r4_universe_prefixes = [ "Sb7_core__" ];
        (* The sync-free core only ever writes through the runtime
           functor parameter, uniformly named R. *)
        r4_write_idents = [ "R.write" ];
      };
    r5 =
      {
        (* Everything in the repository's own namespaces. *)
        r5_prefixes = [ "Sb7_" ];
        (* The sanctioned Obj sites, each documented in DESIGN.md §3
           ("Typed transaction logs"):
           Padded_atomic exists to defeat false sharing and is Obj
           throughout; the lazy write buffers of Mvstm (TL2 and LSA)
           and NOrec need one cast per module to erase tvar payload
           types; and the
           structure-of-arrays logs erase their entries into parallel
           [Obj.t] arrays through a fixed set of capture/restore
           helpers (the shared undo journal's in Checkpoint, ETL's
           in-place journal pair, NOrec's value log — each a two-line
           adapter whose type annotation states the only shape it ever
           sees). *)
        r5_allowed =
          [
            ("Sb7_stm__Padded_atomic", None);
            ("Sb7_stm__Mvstm", Some "cast_ref");
            ("Sb7_stm__Norec", Some "cast_ref");
            ("Sb7_stm__Checkpoint", Some "undo_unset");
            ("Sb7_stm__Checkpoint", Some "save_ref");
            ("Sb7_stm__Checkpoint", Some "restore_ref");
            ("Sb7_stm__Etl", Some "journal");
            ("Sb7_stm__Etl", Some "undo_restore");
            ("Sb7_stm__Norec", Some "read_unset");
            ("Sb7_stm__Norec", Some "read_capture_tv");
            ("Sb7_stm__Norec", Some "read_capture_val");
            ("Sb7_stm__Norec", Some "read_still_current");
          ];
      };
    r6 =
      {
        r6_prefixes = [ "Sb7_" ];
        (* The harness wraps every operation body in R.atomic; the
           uniform read-only dispatch goes through atomic_ro. *)
        r6_atomic_idents = [ "R.atomic"; "R.atomic_ro" ];
        r6_sinks =
          [
            (* Writing to a tvar always outlives the attempt. *)
            ("R.write", 1, None);
            (* Mutable-cell stores escape only when the cell itself is
               defined outside the atomic scope. *)
            ("Stdlib.:=", 1, Some 0);
            ("Stdlib.Hashtbl.add", 2, Some 0);
            ("Stdlib.Hashtbl.replace", 2, Some 0);
            ("Stdlib.Queue.add", 0, Some 1);
            ("Stdlib.Queue.push", 0, Some 1);
            ("Stdlib.Stack.push", 0, Some 1);
          ];
      };
    r7 =
      {
        r7_prefixes = [ "Sb7_" ];
        (* Roots beyond the Domain.spawn closures the graph discovers
           itself. The benchmark workers call the runtime through the
           [R] functor parameter, and the STM runtimes are single
           [Ro_dispatch.Make] applications that call the substrate
           through its [Stm] parameter — calls through functor
           parameters have no resolvable path, so the cross-domain
           entry points they target are rooted here explicitly.
           Whole-unit roots cover the lock runtimes and wrappers
           (every binding of those units runs on worker domains); the
           substrates get exactly the entry points the dispatcher
           forwards to — the rest of each engine is reached from them
           through the value graph. *)
        r7_roots =
          [
            ("Sb7_runtime__Seq_runtime", None);
            ("Sb7_runtime__Coarse_runtime", None);
            ("Sb7_runtime__Medium_runtime", None);
            ("Sb7_runtime__Fine_runtime", None);
            ("Sb7_runtime__Tl2_runtime", None);
            ("Sb7_runtime__Lsa_runtime", None);
            ("Sb7_runtime__Norec_runtime", None);
            ("Sb7_runtime__Etl_runtime", None);
            ("Sb7_runtime__Astm_runtime", None);
            ("Sb7_runtime__Tournament_runtime", None);
            ("Sb7_runtime__Ro_dispatch", None);
          ]
          @ List.concat_map
              (fun unit_name ->
                List.map
                  (fun b -> (unit_name, Some b))
                  [ "atomic"; "atomic_ro"; "read"; "write" ])
              [
                "Sb7_stm__Mvstm";
                "Sb7_stm__Norec";
                "Sb7_stm__Etl";
                "Sb7_stm__Astm";
              ];
        (* Per-domain context records: every value of these types is
           either allocated fresh per transaction/operation or lives in
           Domain.DLS, so a mutation reachable from a domain root is
           still single-domain. The justification strings double as the
           audit trail the allowlist test asserts non-empty. *)
        r7_confined_types =
          [
            ( "Sb7_stm__Txdesc.vtx",
              "transaction descriptor (TL2/LSA/ETL): held in one \
               domain's Domain.DLS state for that domain's lifetime" );
            ( "Sb7_stm__Readset.t",
              "read set of a Txdesc.vtx descriptor: owned with it" );
            ( "Sb7_stm__Checkpoint.t",
              "checkpoint marks, write log and undo journal of a \
               Txdesc.vtx descriptor: owned with it" );
            ( "Sb7_stm__Norec.tx",
              "transaction descriptor: held in one domain's Domain.DLS \
               state for that domain's lifetime" );
            ( "Sb7_stm__Astm.txd",
              "transaction descriptor: allocated per attempt and held in \
               one domain's Domain.DLS state while it runs" );
            ( "Sb7_stm__Txdesc.state",
              "Domain.DLS value: per-domain by construction" );
            ( "Sb7_stm__Astm.domain_state",
              "Domain.DLS value: per-domain by construction" );
            ( "wentry.W",
              "lazy write-buffer entry (inline record, TL2/LSA/NOrec): \
               owned by the enclosing transaction descriptor; its \
               tvar's .content is published only at commit, under the \
               tvar's version-lock or NOrec's sequence lock" );
            ( "Sb7_stm__Sharded_counter.shard",
              "padded per-domain counter shard from Domain.DLS: only \
               the owning domain writes it; readers aggregate \
               quiescently" );
            ( "Sb7_harness__Stats.op_stat",
              "per-worker statistics record: each worker owns its \
               slice; the harness merges after join" );
            ( "Sb7_stm__Backoff.t",
              "per-transaction backoff state threaded through the \
               retry loop of a single domain" );
            ( "Sb7_runtime__Fine_runtime.op_ctx",
              "per-operation lock context from Domain.DLS: held-lock \
               table and undo log are single-domain" );
            ( "Sb7_runtime__Tournament_runtime.dstate",
              "per-domain epoch counter registered in DLS: only the \
               owning domain increments it; the decider drains via the \
               atomic commit pool" );
            ( "Sb7_core__Sb_random.t",
              "splittable PRNG state: explicitly threaded one instance \
               per worker, never shared" );
          ];
        (* tvar internals: mutated only under the substrate's own
           concurrency-control protocol (version-locks at commit,
           per-tvar read/write locks), which is exactly the machinery
           the STM correctness argument — and the sanitizer's dynamic
           checks — cover. *)
        r7_tvar_types =
          [
            ( "Sb7_stm__Mvstm.tvar",
              "content and the older-version ring written under the \
               version-lock (at commit, or by a versioned \
               non-transactional store)" );
            ( "Sb7_stm__Etl.tvar",
              "content written encounter-time with the tvar's \
               write-lock held" );
            ( "Sb7_runtime__Fine_runtime.tvar",
              "content written with the per-tvar write lock held \
               (lock_for_write precedes every write)" );
          ];
        r7_allowed =
          [
            ( "Sb7_harness__Race_probe",
              None,
              "live seeded race for the static/dynamic cross-check: \
               sb7-sanitize domain-race strips this waiver, demands \
               the R7 finding reappear, then exhibits the lost \
               updates dynamically" );
            ( "Sb7_runtime__Seq_runtime",
              Some "write",
              "single-domain baseline runtime: documented unsafe under \
               parallelism and never selected by multi-domain runs" );
            ( "Sb7_runtime__Coarse_runtime",
              Some "write",
              "tvar write path of the coarse runtime: callers hold the \
               global rwlock in write mode, taken by [atomic]" );
            ( "Sb7_runtime__Medium_runtime",
              Some "write",
              "tvar write path of the medium runtime: callers hold the \
               locking plan's write locks acquired by [atomic]; R3 \
               audits the pairing and the sanitizer checks locksets \
               dynamically" );
            ( "Sb7_runtime__Medium_runtime",
              Some "drop_first_write_lock",
              "seeded-bug fixture (Unsafe.dropping): armed quiescently \
               by the sanitizer harness, racy by design when armed" );
            ( "Sb7_runtime__Medium_runtime",
              Some "reset",
              "seeded-bug fixture (Unsafe.dropping): disarmed \
               quiescently between runs" );
            ( "Sb7_runtime__Medium_runtime",
              Some "effective_plan",
              "reads the seeded-bug fixture flag; exact flag value \
               only matters while the sanitizer has armed it" );
            ( "Sb7_runtime__Fine_runtime",
              Some "lock_for_write",
              "flips the Held_read cell in the per-operation ctx.held \
               table after winning the upgrade CAS on the tvar's lock \
               word" );
            ( "Sb7_runtime__Tournament_runtime",
              Some "try_decide",
              "decider-only state (prev_snap/occupancy/switches/\
               policy_state): mutated only after winning the \
               [deciding] CAS; the exclusion protocol is an atomic flag \
               lock inference cannot see" );
            ( "Sb7_runtime__Tournament_runtime",
              Some "switch_to",
              "called only from the [deciding] CAS winner during the \
               quiesce fence; epoch baseline reset is single-writer" );
            ( "Sb7_runtime__Tournament_runtime",
              Some "reset_stats",
              "reset contract: runs quiescent between runs, after \
               workers have joined" );
            ( "Sb7_runtime__Tournament_runtime",
              Some "stats",
              "reads the tournament's own counters (occupancy, \
               switches) quiescently after a run; staleness is \
               harmless for reporting" );
            ( "Sb7_stm__Checkpoint",
              Some "restore_ref",
              "restores a lazy write-buffer slot (TL2/LSA) from the \
               per-transaction undo journal during a partial rollback; \
               the slot is transaction-private until commit" );
            ( "Sb7_stm__Mvstm",
              Some "write",
              "updates the transaction-private redo slot (w.value ref) \
               of a write-set entry; published to the tvar only at \
               commit under the version-lock" );
            ( "Sb7_stm__Norec",
              Some "write",
              "updates the transaction-private redo slot (w.value ref) \
               of a write-set entry; published only inside the commit \
               critical section" );
          ];
      };
    strict_local = false;
  }
