(* The tournament meta-runtime: races the four STM substrates (TL2,
   LSA, NOrec, ETL) against the live workload and dispatches every
   transaction to the current champion.

   STMBench7's central finding — and the Synchrobench comparison's
   (PAPERS.md) — is that no single STM design wins across the
   benchmark's phases: NOrec's zero-metadata reads win read-dominated
   low-contention stretches, ETL's early aborts win write-dominated
   structural churn, LSA's snapshots win long traversals against
   writers, TL2 is the all-rounder. This runtime turns that finding
   into a strategy: it re-decides the champion every epoch (a fixed
   number of committed transactions) from the live {!Sb7_stm.Stm_stats}
   signals — abort rate, read-only rate, mean read-set size, partial-
   abort salvage rate — through a pure rule-based {!Policy} with
   hysteresis (a challenger must out-score the champion by a margin
   for a streak of epochs, and a fresh champion gets a dwell period),
   so noise cannot make it thrash.

   Substrates keep their own tvar representations, so a tournament
   tvar is the product of the four substrate tvars, with the invariant
   that the CURRENT CHAMPION's component is authoritative and the
   other three may be stale. Transactions only ever touch the
   champion's component; a switch migrates every registered tvar's
   value from the old champion's component into the new one's (via the
   substrates' non-transactional read/write — LSA's non-transactional
   write versions properly through its vlock) before the new champion
   sees traffic.

   Correctness of the switch rests on an epoch fence: no two
   substrates' transactions may overlap, and no transaction may
   overlap the migration. Every domain owns a padded in-transaction
   flag; a transaction raises its flag and then checks the [pending]
   word, backing off while a switch is in progress (the same
   flag-then-check / publish-then-drain pattern as the harness's
   start barrier, both sides sequentially consistent [Atomic]
   operations). The switching domain — the epoch decider, which runs
   BETWEEN its own transactions — publishes [pending], waits until
   every flag is down, migrates, flips [champion], and releases
   [pending].

   Costs, by design: 4x tvar memory, a registry entry per tvar, and an
   O(#tvars) copy per switch — switches are epoch-rare, so the copy
   amortizes to noise. The per-transaction overhead is one flag store,
   one [pending] load, and one [champion] load (a read-mostly line). *)

(* The decision rules, pure and separately testable: scores are
   functions of the epoch's signals only, and [decide] folds hysteresis
   state. docs/PERF.md §8 tabulates the rules against measurements. *)
module Policy = struct
  type signals = {
    abort_rate : float;  (** aborts / (commits + aborts) *)
    ro_rate : float;  (** read-only commits / commits *)
    mean_read_set : float;  (** read-set entries per commit *)
    salvage_rate : float;
        (** partial aborts / (partial aborts + full aborts) *)
  }

  let substrate_count = 4
  let tl2 = 0
  let lsa = 1
  let norec = 2
  let etl = 3
  let substrate_names = [| "tl2"; "lsa"; "norec"; "etl" |]

  let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

  (* Rule-based scores in [0, 1]-ish space. TL2 is the flat-scored
     all-rounder the others must displace:
     - NOrec climbs with the read-only rate (zero-metadata reads, free
       ro commits) and falls hard with contention (serialized writers,
       whole-log value revalidation) and with large read sets
       (validation is O(log), paid per clock movement);
     - ETL needs BOTH write-dominance and real contention — that is
       when encounter-time locking's early aborts beat lazy buffering;
     - LSA earns its multi-version overhead on big-read-set phases,
       the more so when writers are actually forcing aborts;
     - TL2 gets a bonus when partial aborts are salvaging work (its
       checkpointed traversals), raising the displacement bar. *)
  let score i s =
    let rs_norm = clamp01 (s.mean_read_set /. 256.) in
    if i = tl2 then 0.50 +. (0.20 *. s.salvage_rate)
    else if i = lsa then
      0.25 +. (0.35 *. rs_norm) +. (0.20 *. s.abort_rate *. s.ro_rate)
    else if i = norec then
      0.30 +. (0.45 *. s.ro_rate) -. (1.20 *. s.abort_rate)
      -. (0.30 *. rs_norm)
    else 0.35 +. (0.45 *. (1. -. s.ro_rate) *. clamp01 (4. *. s.abort_rate))

  type config = {
    margin : float;  (** challenger must beat the champion by this *)
    streak : int;  (** ... for this many consecutive epochs *)
    dwell : int;  (** epochs a fresh champion is unchallengeable *)
  }

  let default_config = { margin = 0.05; streak = 2; dwell = 3 }

  type state = {
    champion : int;
    challenger : int;  (** current challenger, or -1 *)
    streak : int;  (** consecutive epochs the challenger has won *)
    dwell : int;  (** dwell epochs remaining *)
  }

  let initial = { champion = tl2; challenger = -1; streak = 0; dwell = 0 }
  let champion st = st.champion

  (* One epoch decision. Hysteresis: a single-epoch blip never
     switches (streak), a near-tie never switches (margin), and a
     switch is followed by a dwell window during which challenges are
     ignored — the no-thrash properties the flap test pins down. *)
  let decide cfg st s =
    if st.dwell > 0 then { st with dwell = st.dwell - 1; challenger = -1; streak = 0 }
    else begin
      let best = ref st.champion and best_score = ref (score st.champion s) in
      for i = 0 to substrate_count - 1 do
        let sc = score i s in
        if sc > !best_score then begin
          best := i;
          best_score := sc
        end
      done;
      if
        !best = st.champion
        || !best_score < score st.champion s +. cfg.margin
      then { st with challenger = -1; streak = 0 }
      else if !best = st.challenger then begin
        let streak = st.streak + 1 in
        if streak >= cfg.streak then
          { champion = !best; challenger = -1; streak = 0; dwell = cfg.dwell }
        else { st with streak }
      end
      else { st with challenger = !best; streak = 1 }
    end
end

module type CONFIG = sig
  val name : string

  (** Committed transactions per epoch (approximate: commit counts are
      flushed from domain-local tallies in batches). *)
  val epoch_length : int

  val policy : Policy.config
end

module Make (C : CONFIG) : Runtime_intf.S = struct
  module Tl2 = Sb7_stm.Tl2
  module Lsa = Sb7_stm.Lsa
  module Norec = Sb7_stm.Norec
  module Etl = Sb7_stm.Etl
  module Stm_stats = Sb7_stm.Stm_stats
  module Padded_atomic = Sb7_stm.Padded_atomic
  module D_tl2 = Ro_dispatch.Make (Tl2)
  module D_lsa = Ro_dispatch.Make (Lsa)
  module D_norec = Ro_dispatch.Make (Norec)
  module D_etl = Ro_dispatch.Make (Etl)

  let name = C.name

  type 'a tvar = {
    t_tl2 : 'a Tl2.tvar;
    t_lsa : 'a Lsa.tvar;
    t_norec : 'a Norec.tvar;
    t_etl : 'a Etl.tvar;
  }

  (* Which substrate's component is authoritative. Only ever changed
     inside the quiesce fence, after migration completes (release via
     the SC [Atomic.set]); transactions sample it after raising their
     fence flag. *)
  let champion = Atomic.make Policy.tl2

  (* A switch in progress: transactions must not start. *)
  let pending = Atomic.make false

  let read_at : type a. a tvar -> int -> a =
   fun tv i ->
    if i = Policy.tl2 then Tl2.read tv.t_tl2
    else if i = Policy.lsa then Lsa.read tv.t_lsa
    else if i = Policy.norec then Norec.read tv.t_norec
    else Etl.read tv.t_etl

  let write_at : type a. a tvar -> int -> a -> unit =
   fun tv i v ->
    if i = Policy.tl2 then Tl2.write tv.t_tl2 v
    else if i = Policy.lsa then Lsa.write tv.t_lsa v
    else if i = Policy.norec then Norec.write tv.t_norec v
    else Etl.write tv.t_etl v

  (* Every tvar registers a monomorphic migration closure; a switch
     folds the list inside the fence (no transactions running), using
     the substrates' non-transactional read/write. Aborted creators
     can leak a registered tvar nothing references — it migrates
     harmlessly. *)
  let reg_lock = Mutex.create ()
  let migrations : (int -> int -> unit) list ref = ref []

  let make v =
    let tv =
      {
        t_tl2 = Tl2.make v;
        t_lsa = Lsa.make v;
        t_norec = Norec.make v;
        t_etl = Etl.make v;
      }
    in
    let migrate from_ to_ = write_at tv to_ (read_at tv from_) in
    Mutex.lock reg_lock;
    migrations := migrate :: !migrations;
    Mutex.unlock reg_lock;
    tv

  let read tv = read_at tv (Atomic.get champion)
  let write tv v = write_at tv (Atomic.get champion) v

  (* Per-domain fence flag (padded: flags are spun on cross-domain)
     plus domain-local transaction depth and commit tally. *)
  type dstate = {
    flag : Padded_atomic.t;
    mutable depth : int;
    mutable local_commits : int;
  }

  let dstates_lock = Mutex.create ()
  let dstates : dstate list ref = ref []

  let dkey : dstate Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let d = { flag = Padded_atomic.make 0; depth = 0; local_commits = 0 } in
        Mutex.lock dstates_lock;
        dstates := d :: !dstates;
        Mutex.unlock dstates_lock;
        d)

  (* Epoch accounting: domain-local commit tallies flushed to a shared
     pool in batches, so the fast path has no shared RMW. *)
  let flush_every = max 1 (C.epoch_length / 8)
  let commit_pool = Padded_atomic.make 0
  let deciding = Atomic.make false

  (* Decider-only state (guarded by the [deciding] CAS, which also
     carries the happens-before edge between successive deciders):
     policy state, champion-occupancy tallies, and the per-substrate
     stats snapshot at the last epoch boundary. *)
  let policy_state = ref Policy.initial
  let occupancy = Array.make Policy.substrate_count 0
  let prev_snap = Array.make Policy.substrate_count Stm_stats.zero
  let own_stats = Stm_stats.create ()

  let substrate_snapshot i =
    if i = Policy.tl2 then Tl2.stats ()
    else if i = Policy.lsa then Lsa.stats ()
    else if i = Policy.norec then Norec.stats ()
    else Etl.stats ()

  let signals_of_delta ~prev ~cur : Policy.signals =
    let d c =
      float_of_int (max 0 (Stm_stats.get cur c - Stm_stats.get prev c))
    in
    let commits = d Stm_stats.commits in
    let aborts = d Stm_stats.aborts in
    let ro = d Stm_stats.read_only_commits in
    let entries = d Stm_stats.read_set_entries in
    let partials = d Stm_stats.partial_aborts in
    {
      abort_rate = aborts /. Float.max 1. (commits +. aborts);
      ro_rate = ro /. Float.max 1. commits;
      (* Read-only commits keep no read set, so average over the
         update transactions that actually logged one. *)
      mean_read_set = entries /. Float.max 1. (commits -. ro);
      salvage_rate = partials /. Float.max 1. (partials +. aborts);
    }

  (* The quiesce fence. Publish [pending], drain every domain's flag,
     migrate old -> new, crown, release. Runs between the decider's
     own transactions, so its flag is already down; entering
     transactions on other domains park until [pending] drops. *)
  let switch_to ~from_ ~to_ =
    Atomic.set pending true;
    Mutex.lock dstates_lock;
    let flags = !dstates in
    Mutex.unlock dstates_lock;
    List.iter
      (fun d ->
        while Padded_atomic.get d.flag = 1 do
          Domain.cpu_relax ()
        done)
      flags;
    Mutex.lock reg_lock;
    let migs = !migrations in
    Mutex.unlock reg_lock;
    List.iter (fun m -> m from_ to_) migs;
    (* The migration itself committed into the target substrate; reset
       its epoch baseline so the copy traffic is not read as signal. *)
    prev_snap.(to_) <- substrate_snapshot to_;
    Atomic.set champion to_;
    Atomic.set pending false

  let try_decide () =
    if Atomic.compare_and_set deciding false true then begin
      Padded_atomic.set commit_pool 0;
      let champ = Atomic.get champion in
      let cur = substrate_snapshot champ in
      let s = signals_of_delta ~prev:prev_snap.(champ) ~cur in
      prev_snap.(champ) <- cur;
      occupancy.(champ) <- occupancy.(champ) + 1;
      Stm_stats.(incr own_stats epoch_decisions);
      let st = Policy.decide C.policy !policy_state s in
      policy_state := st;
      let next = Policy.champion st in
      if next <> champ then begin
        switch_to ~from_:champ ~to_:next;
        Stm_stats.(incr own_stats substrate_switches)
      end;
      Atomic.set deciding false
    end

  let note_commit d =
    d.local_commits <- d.local_commits + 1;
    if d.local_commits >= flush_every then begin
      d.local_commits <- 0;
      let total =
        Padded_atomic.fetch_and_add commit_pool flush_every + flush_every
      in
      if total >= C.epoch_length then try_decide ()
    end

  let rec enter d =
    Padded_atomic.set d.flag 1;
    if Atomic.get pending then begin
      (* A switch is draining the fence: step back out and park. *)
      Padded_atomic.set d.flag 0;
      while Atomic.get pending do
        Domain.cpu_relax ()
      done;
      enter d
    end

  let dispatch ~profile champ f =
    if champ = Policy.tl2 then D_tl2.atomic ~profile f
    else if champ = Policy.lsa then D_lsa.atomic ~profile f
    else if champ = Policy.norec then D_norec.atomic ~profile f
    else D_etl.atomic ~profile f

  let atomic ~profile f =
    let d = Domain.DLS.get dkey in
    if d.depth > 0 then
      (* Nested: the fence is already held; flatten into the enclosing
         substrate transaction (the substrates all flatten). *)
      dispatch ~profile (Atomic.get champion) f
    else begin
      enter d;
      d.depth <- 1;
      match dispatch ~profile (Atomic.get champion) f with
      | result ->
        d.depth <- 0;
        Padded_atomic.set d.flag 0;
        note_commit d;
        result
      | exception exn ->
        d.depth <- 0;
        Padded_atomic.set d.flag 0;
        raise exn
    end

  (* Checkpoint capability: dispatched to the champion, which cannot
     change under a live transaction (the fence). TL2, LSA and ETL
     salvage; a NOrec champion quietly falls back to full aborts —
     closures already handle [resume () = (0, 0)]. *)
  let partial_abort = true

  let checkpoint ~acc =
    let champ = Atomic.get champion in
    if champ = Policy.tl2 then D_tl2.checkpoint ~acc
    else if champ = Policy.lsa then D_lsa.checkpoint ~acc
    else if champ = Policy.norec then D_norec.checkpoint ~acc
    else D_etl.checkpoint ~acc

  let resume () =
    let champ = Atomic.get champion in
    if champ = Policy.tl2 then D_tl2.resume ()
    else if champ = Policy.lsa then D_lsa.resume ()
    else if champ = Policy.norec then D_norec.resume ()
    else D_etl.resume ()

  (* Counters: the four substrates' totals summed (only the champion
     accrues traffic at any time; runs reset first, so the sum is this
     run's work) plus the meta-runtime's own epoch/switch events and
     the champion-occupancy breakdown. *)
  let stats () =
    let combined = ref (Stm_stats.snapshot own_stats) in
    for i = 0 to Policy.substrate_count - 1 do
      combined := Stm_stats.add !combined (substrate_snapshot i)
    done;
    Stm_stats.to_assoc !combined
    @ List.init Policy.substrate_count (fun i ->
          ("champion_epochs_" ^ Policy.substrate_names.(i), occupancy.(i)))

  (* Reset contract (like every runtime): called quiescent, between
     runs. Re-crowns TL2 — migrating the authoritative state back so
     a run never starts on a stale component — and zeroes substrate
     stats, dispatch demotions, policy state and epoch baselines. *)
  let reset_stats () =
    let champ = Atomic.get champion in
    if champ <> Policy.tl2 then switch_to ~from_:champ ~to_:Policy.tl2;
    D_tl2.reset ();
    D_lsa.reset ();
    D_norec.reset ();
    D_etl.reset ();
    Tl2.reset_stats ();
    Lsa.reset_stats ();
    Norec.reset_stats ();
    Etl.reset_stats ();
    Stm_stats.reset own_stats;
    Array.fill occupancy 0 Policy.substrate_count 0;
    for i = 0 to Policy.substrate_count - 1 do
      prev_snap.(i) <- substrate_snapshot i
    done;
    policy_state := Policy.initial;
    Padded_atomic.set commit_pool 0
end

(* The registered instance: epochs of 256 commits, default hysteresis.
   Short enough to catch the quick bench's phase flips, long enough
   that the signals are statistics rather than noise. *)
include Make (struct
  let name = "tournament"
  let epoch_length = 256
  let policy = Policy.default_config
end)
