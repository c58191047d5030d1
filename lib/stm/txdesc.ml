(* The transaction engine shared by TL2, LSA, NOrec and ETL: per-domain
   state, the descriptor pool, the [atomic] / [atomic_ro] retry loops,
   and the versioned descriptor of the three vlock-based substrates.

   A substrate supplies its descriptor type and a record of per-attempt
   hooks. The per-read paths ([read], [write], {!Readset.seen},
   {!Readset.push}) stay direct calls into plain modules — the build
   has no flambda, so only direct calls inline across modules — and
   only the once-per-attempt hooks go through a closure. *)

(* Raised by a zero-log read when the snapshot is stale; [atomic_ro]
   re-snapshots the read version and re-runs the closure. Never
   escapes the loop. *)
exception Ro_restart

(* Per-domain state: [active] is the running update transaction (if
   any); [spare] caches the descriptor between transactions so short
   operations do not reallocate their logs. [ro_rv] is the read version
   of a running zero-log read-only transaction, or -1 — read-only mode
   needs no descriptor at all (no read set, no write set), so a single
   int is its entire footprint. [backoff] is this domain's contention
   backoff. *)
type 'tx state = {
  mutable active : 'tx option;
  mutable spare : 'tx option;
  mutable ro_rv : int;
  mutable backoff : Backoff.t;
}

type 'tx hooks = {
  fresh : unit -> 'tx; (* a new descriptor (pool miss) *)
  scrub : 'tx -> unit; (* drop every captured value before pooling *)
  reset : 'tx -> unit; (* start a fresh attempt *)
  commit : 'tx -> unit; (* may raise [Conflict] *)
  salvage : 'tx -> bool; (* partial abort: [true] resumes the attempt *)
  rollback : 'tx -> unit; (* undo in-place effects of a failed attempt *)
  flush : 'tx -> unit; (* account the attempt's tallies *)
}

(* Descriptor free pool (same shape as the {!Sharded_counter} shard
   pool): a domain's first transaction adopts a scrubbed descriptor
   donated by an exited domain — keeping the log capacities it learned
   — or allocates fresh on a cold start. [Domain.at_exit] scrubs and
   donates the spare, so steady-state respawning workers allocate no
   descriptor, no log arrays and no write-set table at all. *)
type 'tx t = {
  key : 'tx state Domain.DLS.key;
  stats : Stm_stats.t;
  hooks : 'tx hooks;
  pool_lock : Mutex.t;
  mutable pool : 'tx list;
}

let create stats hooks =
  {
    key =
      Domain.DLS.new_key (fun () ->
          {
            active = None;
            spare = None;
            ro_rv = -1;
            backoff = Backoff.for_domain ();
          });
    stats;
    hooks;
    pool_lock = Mutex.create ();
    pool = [];
  }

let state t = Domain.DLS.get t.key

let release t state =
  match state.spare with
  | None -> ()
  | Some tx ->
    state.spare <- None;
    t.hooks.scrub tx;
    if !Stm_intf.descriptor_pooling_enabled then begin
      Mutex.lock t.pool_lock;
      t.pool <- tx :: t.pool;
      Mutex.unlock t.pool_lock
    end

(* First descriptor acquisition on this domain: pool pop or fresh
   allocation. Runs at most once per domain lifetime ([spare] holds the
   descriptor from then on), which is also the only point the at-exit
   donation needs registering. The backoff stream is reseeded here, as
   the harness publishes its run seed before the first transaction. *)
let acquire t state =
  let popped =
    if !Stm_intf.descriptor_pooling_enabled then begin
      Mutex.lock t.pool_lock;
      let popped =
        match t.pool with
        | tx :: rest ->
          t.pool <- rest;
          Some tx
        | [] -> None
      in
      Mutex.unlock t.pool_lock;
      popped
    end
    else None
  in
  let tx =
    match popped with
    | Some tx ->
      Stm_stats.(incr t.stats descriptor_pool_hits);
      tx
    | None ->
      Stm_stats.(incr t.stats descriptor_pool_misses);
      t.hooks.fresh ()
  in
  state.backoff <- Backoff.for_domain ();
  state.spare <- Some tx;
  Domain.at_exit (fun () -> release t state);
  tx

let active t = (state t).active

let in_transaction t =
  let state = state t in
  state.ro_rv >= 0
  ||
  match state.active with
  | None -> false
  | Some _ -> true

let atomic t f =
  let state = state t in
  if state.ro_rv >= 0 then
    (* Nested inside [atomic_ro]: flatten into the read-only
       transaction. Writes keep raising [Write_in_read_only], so a
       mis-declared operation cannot smuggle updates through an inner
       [atomic]. *)
    f ()
  else
    match state.active with
    | Some _ -> f () (* nested: flatten *)
    | None ->
      let tx =
        match state.spare with
        | Some tx -> tx
        | None -> acquire t state
      in
      let h = t.hooks in
      let rec attempt ~fresh () =
        if fresh then begin
          h.reset tx;
          state.active <- Some tx
        end;
        match
          let result = f () in
          h.commit tx;
          result
        with
        | result ->
          state.active <- None;
          h.flush tx;
          Backoff.reset state.backoff;
          result
        | exception Stm_intf.Conflict ->
          if h.salvage tx then
            (* Partial abort: the descriptor keeps its validated prefix
               and stays active; re-run the closure, which consults
               [resume] and skips the salvaged checkpointed units. Not
               counted as an abort and no backoff — the conflicting
               window was already rolled past. *)
            attempt ~fresh:false ()
          else begin
            h.rollback tx;
            state.active <- None;
            h.flush tx;
            Stm_stats.(incr t.stats aborts);
            Backoff.once state.backoff;
            attempt ~fresh:true ()
          end
        | exception exn ->
          (* Every read was validated against the read version, so the
             view that produced [exn] was consistent: roll back and
             propagate. *)
          h.rollback tx;
          state.active <- None;
          h.flush tx;
          raise exn
      in
      attempt ~fresh:true ()

(* Zero-log read-only transactions: [snapshot ()] draws the read
   version of each attempt, and the substrate's [read] checks against
   [ro_rv]. *)
let atomic_ro t ~snapshot f =
  let state = state t in
  if state.ro_rv >= 0 then f () (* nested ro: flatten *)
  else
    match state.active with
    | Some _ ->
      (* Inside an update transaction: flatten into it — its reads are
         already validated, and its writes are wanted. *)
      f ()
    | None ->
      let rec attempt ~backed_off () =
        state.ro_rv <- snapshot ();
        match f () with
        | result ->
          state.ro_rv <- -1;
          if backed_off then Backoff.reset state.backoff;
          (* No read set was kept, so there is nothing to flush:
             max_read_set / read_set_entries are untouched by ro
             transactions. *)
          Stm_stats.record_ro_commit t.stats;
          result
        | exception Ro_restart ->
          (* A read post-dated the snapshot: re-snapshot rv and re-run
             (TinySTM-style). Counted separately from aborts — no
             conflict with a writer's outcome, just a stale start. *)
          state.ro_rv <- -1;
          Stm_stats.(incr t.stats ro_inline_revalidations);
          attempt ~backed_off ()
        | exception Stm_intf.Conflict ->
          (* Only LSA's snapshot reads conflict here, when a needed
             version was evicted from its ring: an abort, retried at a
             fresh snapshot with backoff, like an update attempt. *)
          state.ro_rv <- -1;
          Stm_stats.(incr t.stats aborts);
          Backoff.once state.backoff;
          attempt ~backed_off:true ()
        | exception exn ->
          (* Every completed read was consistent with the snapshot, so
             the view that produced [exn] was too: propagate (this
             includes [Write_in_read_only], which the runtime dispatch
             layer turns into a demotion). *)
          state.ro_rv <- -1;
          raise exn
      in
      attempt ~backed_off:false ()

(* --- The versioned descriptor of TL2, LSA and ETL ---

   The three share the per-tvar versioned lock and a global clock, so
   their descriptors differ only in the write-set entry ['w]: what each
   keeps is when it locks (TL2/LSA at commit, ETL at first write), how
   writes are held (a lazy buffer journalled through
   {!Checkpoint.save_ref}, or in place with a journal) and how versions
   are read (one vlock, or LSA's ring). *)

type 'w vtx = {
  mutable rv : int;
  rs : Readset.t;
  ck : Checkpoint.t;
  writes : (int, 'w) Hashtbl.t;
  mutable wbloom : int; (* word-sized bloom over written tvar ids *)
  mutable bloom_skips : int;
  mutable extensions : int;
}

let fresh_vtx () =
  {
    rv = 0;
    rs = Readset.create ();
    ck = Checkpoint.create ();
    writes = Hashtbl.create 64;
    wbloom = 0;
    bloom_skips = 0;
    extensions = 0;
  }

(* Drop every heap reference the descriptor still holds (write-set
   entries, vlock pointers, undo slots) so a pooled descriptor never
   pins tvar values or atomic cells from its previous life. *)
let scrub_vtx tx =
  Hashtbl.reset tx.writes;
  tx.wbloom <- 0;
  Readset.scrub tx.rs;
  Checkpoint.scrub tx.ck

let reset_vtx clock tx =
  tx.rv <- Global_clock.now clock;
  Readset.reset tx.rs;
  Checkpoint.reset tx.ck;
  Hashtbl.reset tx.writes;
  tx.wbloom <- 0;
  tx.bloom_skips <- 0;
  tx.extensions <- 0

(* Account the attempt's tallies: one shard lookup and a batch of
   stores per attempt rather than one per logged read. *)
let flush_vtx stats tx =
  let rs = tx.rs and s = Stm_stats.shard stats in
  Stm_stats.(
    bump s validation_steps rs.validation_steps;
    record_read_set s ~size:rs.n;
    bump s dedup_hits rs.dedup_hits;
    bump s bloom_skips tx.bloom_skips;
    bump s extensions tx.extensions;
    bump s checkpoints tx.ck.ncheckpoints)

(* A read observed a version newer than [rv]: revalidate the read set
   and advance [rv] to the clock sampled BEFORE validating, instead of
   aborting. *)
let extend clock ~own_locks tx =
  let now = Global_clock.now clock in
  if Readset.valid tx.rs ~own_locks tx.writes then begin
    tx.rv <- now;
    tx.extensions <- tx.extensions + 1
  end
  else raise Stm_intf.Conflict

(* Partial abort (see {!Checkpoint.salvage}): on success the prefix
   just validated at the returned version becomes the new [rv], so
   resumed reads post-dating the old rv don't refire. *)
let salvage_vtx stats clock ~own_locks ~blind ~restore tx =
  let drop id = Hashtbl.remove tx.writes id in
  let rv =
    Checkpoint.salvage tx.ck tx.rs stats ~clock ~writes:tx.writes ~own_locks
      ~blind ~restore ~drop
  in
  rv >= 0
  && begin
       tx.rv <- rv;
       tx.wbloom <- Checkpoint.written_bloom tx.ck;
       true
     end

(* A no-op outside an update transaction (including read-only mode) or
   with partial abort disabled, so full-abort runs pay nothing. *)
let checkpoint t ~acc =
  match active t with
  | None -> ()
  | Some tx -> Checkpoint.mark tx.ck ~reads:(Readset.length tx.rs) ~acc

let resume t =
  match active t with
  | None -> (0, 0)
  | Some tx -> Checkpoint.resume tx.ck
