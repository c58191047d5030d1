(* A DSTM/ASTM-style object-granularity software transactional memory
   (Herlihy et al. PODC'03; Marathe, Scherer, Scott DISC'05 — references
   [7, 9] of the STMBench7 paper).

   This STM deliberately reproduces the two design points the paper
   identifies as the cause of ASTM's collapse on STMBench7:

   - Invisible reads with incremental validation: a reader leaves no
     trace on the object; to guarantee consistency it must revalidate
     its entire private read list on EVERY object open, so a
     transaction that opens k objects performs O(k^2) validation work.

   - Object-level write acquisition: opening an object for writing
     installs a new locator carrying the complete old and new payload
     values, i.e. the whole object is logically cloned no matter how
     small the updated attribute is. With payloads like the manual text
     or a flat index array, a one-character update copies the entire
     object.

   Conflicts between an opener and an active owner are arbitrated by a
   pluggable contention manager (default: Polka, as in the paper).

   NOTE: this STM must stay pathological by design. The transaction-log
   optimizations applied to Tl2 and Lsa (read-set deduplication,
   bloom-filtered write-set lookups, low-contention commit clock) are
   deliberately NOT applied here: deduplicating the invisible-read list
   or short-circuiting validation would erase the O(k^2) blow-up the
   STMBench7 paper measures, and with it the point of the benchmark.
   Keep it slow. See docs/PERF.md.

   As in the published DSTM/ASTM algorithms, the commit sequence is
   "validate read list, then CAS status to Committed". The two steps are
   not atomic together, so a doomed interleaving can in principle
   produce write-skew between two read-write transactions whose write
   sets are disjoint; the original systems share this property. All
   read-write conflicts on commonly-written objects are detected through
   ownership. *)

exception Conflict = Stm_intf.Conflict

let name = "astm"

type status =
  | Active
  | Committed
  | Aborted

type txd = {
  status : status Atomic.t;
  (* Objects opened so far: the contention-management priority. Read
     racily by other transactions. *)
  opens : int Atomic.t;
  mutable reads : (unit -> bool) list; (* validation closures *)
  mutable nreads : int;
  mutable validation_steps : int;
}

type 'a locator = {
  owner : txd option;
  old_v : 'a; (* committed value when the owner acquired the object *)
  new_v : 'a; (* the owner's tentative value *)
}

type 'a tvar = { id : int; loc : 'a locator Atomic.t }

let policy = ref Contention.Polka
let set_policy p = policy := p
let get_policy () = !policy
let global_stats = Stm_stats.create ()

(* ASTM keys nothing on tvar ids (its read set is a list of opened
   locators, validated linearly — the O(k²) pathology), but it shares
   the chunked allocator so allocation-phase behaviour is comparable
   across substrates without touching that pathology. *)
let tvar_ids = Tvar_id.create ()

let make v =
  {
    id = Tvar_id.fresh tvar_ids;
    loc = Atomic.make { owner = None; old_v = v; new_v = v };
  }

let tvar_id t = t.id

type domain_state = {
  mutable active_tx : txd option;
  backoff : Backoff.t;
}

let state_key : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        active_tx = None;
        backoff = Backoff.for_domain ();
      })

let domain_state () = Domain.DLS.get state_key

let in_transaction () =
  match (domain_state ()).active_tx with
  | None -> false
  | Some _ -> true

(* The most recently committed value of a locator, ignoring any active
   owner's tentative update. *)
let committed_value loc =
  match loc.owner with
  | None -> loc.new_v
  | Some o -> (
    match Atomic.get o.status with
    | Committed -> loc.new_v
    | Aborted | Active -> loc.old_v)

let abort_other (o : txd) = Atomic.compare_and_set o.status Active Aborted

(* Arbitrate a conflict with [other]; returns when the caller may
   re-examine the object. Raises [Conflict] if the manager decides to
   abort the caller. *)
let arbitrate (me : txd) (other : txd) (bo : Backoff.t) ~attempts =
  let decision =
    Contention.decide !policy
      ~my_opens:(Atomic.get me.opens)
      ~other_opens:(Atomic.get other.opens)
      ~attempts
  in
  match decision with
  | Contention.Abort_other -> ignore (abort_other other)
  | Contention.Wait ->
    if Contention.exponential_wait !policy then Backoff.once bo
    else
      for _ = 1 to 64 do
        Domain.cpu_relax ()
      done
  | Contention.Abort_self -> raise Conflict

(* Every open validates the whole read list: the O(k) pass that makes
   total validation cost quadratic in the read-set size. *)
let validate_reads (tx : txd) =
  tx.validation_steps <- tx.validation_steps + tx.nreads;
  if Atomic.get tx.status <> Active then raise Conflict;
  if not (List.for_all (fun check -> check ()) tx.reads) then raise Conflict

let record_read (tx : txd) check =
  tx.reads <- check :: tx.reads;
  tx.nreads <- tx.nreads + 1;
  ignore (Atomic.fetch_and_add tx.opens 1)

let open_read (type a) (tx : txd) (tv : a tvar) (bo : Backoff.t) : a =
  (* Resolve to a value plus whether it came from our own tentative
     write (in which case ownership, not validation, protects it). *)
  let rec resolve attempts =
    let loc = Atomic.get tv.loc in
    match loc.owner with
    | None -> (loc.new_v, false)
    | Some o when o == tx -> (loc.new_v, true)
    | Some o -> (
      match Atomic.get o.status with
      | Committed -> (loc.new_v, false)
      | Aborted -> (loc.old_v, false)
      | Active ->
        arbitrate tx o bo ~attempts;
        resolve (attempts + 1))
  in
  let value, own = resolve 0 in
  if not own then begin
    let check () =
      let loc = Atomic.get tv.loc in
      match loc.owner with
      | Some o when o == tx ->
        (* We acquired the object for writing after reading it; the
           acquisition captured the committed value we must have seen. *)
        loc.old_v == value
      | _ -> committed_value loc == value
    in
    record_read tx check;
    validate_reads tx
  end;
  value

let open_write (type a) (tx : txd) (tv : a tvar) (v : a) (bo : Backoff.t) :
    unit =
  let rec acquire attempts =
    let loc = Atomic.get tv.loc in
    match loc.owner with
    | Some o when o == tx ->
      (* Already own it: replace the tentative value. CAS because a
         contention manager that just aborted us may race to install
         its own locator. *)
      if
        not
          (Atomic.compare_and_set tv.loc loc
             { owner = Some tx; old_v = loc.old_v; new_v = v })
      then acquire attempts
    | _ -> (
      let blocked =
        match loc.owner with
        | None -> false
        | Some o -> (
          match Atomic.get o.status with
          | Active -> true
          | Committed | Aborted -> false)
      in
      if blocked then begin
        (match loc.owner with
        | Some o -> arbitrate tx o bo ~attempts
        | None -> assert false);
        acquire (attempts + 1)
      end
      else
        let cur = committed_value loc in
        (* Installing the locator logically clones the object: both the
           full old and new payloads ride in it. *)
        if
          not
            (Atomic.compare_and_set tv.loc loc
               { owner = Some tx; old_v = cur; new_v = v })
        then acquire attempts
        else ignore (Atomic.fetch_and_add tx.opens 1))
  in
  acquire 0;
  validate_reads tx

let read tv =
  let st = domain_state () in
  match st.active_tx with
  | None -> committed_value (Atomic.get tv.loc)
  | Some tx -> open_read tx tv st.backoff

let write tv v =
  let st = domain_state () in
  match st.active_tx with
  | None ->
    let rec store () =
      let loc = Atomic.get tv.loc in
      let installed = { owner = None; old_v = committed_value loc; new_v = v } in
      if not (Atomic.compare_and_set tv.loc loc installed) then store ()
    in
    store ()
  | Some tx -> open_write tx tv v st.backoff

let fresh_txd () =
  {
    status = Atomic.make Active;
    opens = Atomic.make 0;
    reads = [];
    nreads = 0;
    validation_steps = 0;
  }

let try_commit (tx : txd) =
  validate_reads tx;
  if not (Atomic.compare_and_set tx.status Active Committed) then
    raise Conflict

let flush_tx_stats (tx : txd) =
  let s = Stm_stats.shard global_stats in
  Stm_stats.(
    bump s validation_steps tx.validation_steps;
    record_read_set s ~size:tx.nreads)

let atomic f =
  let st = domain_state () in
  match st.active_tx with
  | Some _ -> f () (* nested: flatten *)
  | None ->
    let rec attempt () =
      let tx = fresh_txd () in
      st.active_tx <- Some tx;
      match
        let result = f () in
        try_commit tx;
        result
      with
      | result ->
        st.active_tx <- None;
        flush_tx_stats tx;
        Stm_stats.record_commit global_stats
          ~read_only:(Atomic.get tx.opens = tx.nreads);
        Backoff.reset st.backoff;
        result
      | exception Conflict ->
        st.active_tx <- None;
        ignore (Atomic.compare_and_set tx.status Active Aborted);
        flush_tx_stats tx;
        Stm_stats.(incr global_stats aborts);
        Backoff.once st.backoff;
        attempt ()
      | exception exn ->
        (* A user exception may stem from an inconsistent view (reads
           are only validated at opens): if validation fails, retry as
           a conflict instead of propagating. *)
        st.active_tx <- None;
        let consistent =
          match validate_reads tx with
          | () -> true
          | exception Conflict -> false
        in
        ignore (Atomic.compare_and_set tx.status Active Aborted);
        flush_tx_stats tx;
        if consistent then raise exn
        else begin
          Stm_stats.(incr global_stats aborts);
          Backoff.once st.backoff;
          attempt ()
        end
    in
    attempt ()

(* Deliberate pass-through: ASTM gets NO read-only fast path. Its
   O(k^2) invisible-read validation on declared-read-only traversals
   is the pathology the paper measures — a zero-log mode here would
   destroy the reproduction (see docs/PERF.md). [write] consequently
   never raises [Write_in_read_only] under this STM, so demotion never
   fires and [ro_zero_log_commits] stays 0 by design. *)
let atomic_ro f = atomic f

let record_ro_demotion () = Stm_stats.(incr global_stats ro_demotions)

(* No checkpointing either: partial abort would soften the abort-storm
   pathology this STM exists to demonstrate. Full-abort semantics are
   preserved by the no-op capability stubs. *)
let partial_abort = false
let checkpoint ~acc = ignore acc
let resume () = (0, 0)

let stats () = Stm_stats.snapshot global_stats
let reset_stats () = Stm_stats.reset global_stats
