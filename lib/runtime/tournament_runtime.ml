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

   A tvar holds one substrate's representation, and transactions only
   ever touch the champion's: the first [read] or [write] of a tvar
   under a new champion converts it, building the champion's tvar from
   the stale one's committed value. The runtime keeps no tvar list, so
   a switch touches none and an unreferenced tvar is garbage.

   Correctness rests on an epoch fence: no two substrates'
   transactions may overlap, so a stale representation is frozen while
   it is converted. Every domain owns a padded in-transaction flag; a
   transaction raises its flag and then checks the [pending] word,
   backing off while a switch is in progress (the same
   flag-then-check / publish-then-drain pattern as the harness's start
   barrier, both sides sequentially consistent [Atomic] operations).
   The switching domain — the epoch decider, which runs BETWEEN its
   own transactions — publishes [pending], waits until every flag is
   down, flips [champion], and releases [pending].

   Costs: a switch is O(domains), and a tvar pays one conversion per
   reign in which it is accessed. Per transaction: one flag store, one
   [pending] load and one [champion] load (a read-mostly line); per
   access, a [champion] load checked against the tvar's
   representation. *)

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

  let name = C.name

  (* The crowned substrate. Only ever changed inside the quiesce fence
     (release via the SC [Atomic.set]); transactions sample it after
     raising their fence flag. *)
  let champion = Atomic.make Policy.tl2

  (* A switch in progress: transactions must not start. *)
  let pending = Atomic.make false

  (* One substrate's tvar: the champion's, or a stale one left by an
     earlier reign that no access has converted yet. *)
  type 'a repr =
    | Tl2 of 'a Tl2.tvar
    | Lsa of 'a Lsa.tvar
    | Norec of 'a Norec.tvar
    | Etl of 'a Etl.tvar

  type 'a tvar = 'a repr Atomic.t

  let repr_in champ v =
    if champ = Policy.tl2 then Tl2 (Tl2.make v)
    else if champ = Policy.lsa then Lsa (Lsa.make v)
    else if champ = Policy.norec then Norec (Norec.make v)
    else Etl (Etl.make v)

  let make v = Atomic.make (repr_in (Atomic.get champion) v)

  (* Rebuild a stale representation as the champion's. Under the fence
     no transaction of the stale substrate is in flight, so a plain read
     returns its committed value. The CAS expects the representation
     observed, never a re-read of [tv]: that could be a conversion a
     transaction has since written through. A lost race is harmless:
     the winner converted the same value. *)
  let convert tv stale champ =
    let v =
      match stale with
      | Tl2 t -> Tl2.read t
      | Lsa t -> Lsa.read t
      | Norec t -> Norec.read t
      | Etl t -> Etl.read t
    in
    ignore (Atomic.compare_and_set tv stale (repr_in champ v))

  let rec read tv =
    let champ = Atomic.get champion in
    match Atomic.get tv with
    | Tl2 t when champ = Policy.tl2 -> Tl2.read t
    | Lsa t when champ = Policy.lsa -> Lsa.read t
    | Norec t when champ = Policy.norec -> Norec.read t
    | Etl t when champ = Policy.etl -> Etl.read t
    | stale ->
      convert tv stale champ;
      read tv

  let rec write tv v =
    let champ = Atomic.get champion in
    match Atomic.get tv with
    | Tl2 t when champ = Policy.tl2 -> Tl2.write t v
    | Lsa t when champ = Policy.lsa -> Lsa.write t v
    | Norec t when champ = Policy.norec -> Norec.write t v
    | Etl t when champ = Policy.etl -> Etl.write t v
    | stale ->
      convert tv stale champ;
      write tv v

  (* Everything else a substrate contributes, one record per substrate
     indexed like {!Policy}: its read-only dispatch, checkpoint
     capability, counters and reset. *)
  type substrate = {
    atomic : 'a. profile:Op_profile.t -> (unit -> 'a) -> 'a;
    checkpoint : acc:int -> unit;
    resume : unit -> int * int;
    snapshot : unit -> Stm_stats.snapshot;
    reset_stats : unit -> unit;
  }

  let substrate (module X : Sb7_stm.Stm_intf.S) =
    let module D = Ro_dispatch.Make (X) in
    {
      atomic = D.atomic;
      checkpoint = D.checkpoint;
      resume = D.resume;
      snapshot = X.stats;
      reset_stats = D.reset_stats;
    }

  let substrates =
    Array.map substrate
      [| (module Tl2 : Sb7_stm.Stm_intf.S); (module Lsa); (module Norec);
         (module Etl) |]

  (* Per-domain fence flag (padded: flags are spun on cross-domain)
     plus domain-local transaction depth and commit tally. *)
  type dstate = {
    flag : Padded_atomic.t;
    mutable depth : int;
    mutable local_commits : int;
  }

  let dstates_lock = Mutex.create ()
  let dstates : dstate list ref = ref []

  (* A domain's flag joins the fence on its first transaction and leaves
     it at domain exit, so respawned workers accumulate no flags. *)
  let dkey : dstate Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let d = { flag = Padded_atomic.make 0; depth = 0; local_commits = 0 } in
        Mutex.lock dstates_lock;
        dstates := d :: !dstates;
        Mutex.unlock dstates_lock;
        Domain.at_exit (fun () ->
            Mutex.lock dstates_lock;
            dstates := List.filter (fun d' -> d' != d) !dstates;
            Mutex.unlock dstates_lock);
        d)

  (* Epoch accounting: domain-local commit tallies flushed to a shared
     pool in batches, so the fast path has no shared RMW. *)
  let flush_every = max 1 (C.epoch_length / 8)
  let commit_pool = Padded_atomic.make 0
  let deciding = Atomic.make false

  (* Decider-only state (guarded by the [deciding] CAS, which also
     carries the happens-before edge between successive deciders):
     policy state, the tournament's own counters, and the per-substrate
     stats snapshot at the last epoch boundary. Each epoch decision
     credits the reigning champion one epoch of [occupancy], so the
     number of decisions is the occupancy total. *)
  let policy_state = ref Policy.initial
  let occupancy = Array.make Policy.substrate_count 0
  let switches = ref 0
  let prev_snap = Array.make Policy.substrate_count Stm_stats.zero

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
     crown, release: O(domains), and no tvar is touched — each converts
     on its first access under the new champion. Runs between the
     decider's own transactions, so its flag is already down; entering
     transactions on other domains park until [pending] drops. *)
  let switch_to next =
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
    (* Transactions still in flight when [next] was last snapshotted
       committed into it afterwards; re-baseline so they are not read
       as this reign's signal. *)
    prev_snap.(next) <- substrates.(next).snapshot ();
    Atomic.set champion next;
    Atomic.set pending false

  let try_decide () =
    if Atomic.compare_and_set deciding false true then begin
      Padded_atomic.set commit_pool 0;
      let champ = Atomic.get champion in
      let cur = substrates.(champ).snapshot () in
      let s = signals_of_delta ~prev:prev_snap.(champ) ~cur in
      prev_snap.(champ) <- cur;
      occupancy.(champ) <- occupancy.(champ) + 1;
      let st = Policy.decide C.policy !policy_state s in
      policy_state := st;
      let next = Policy.champion st in
      if next <> champ then begin
        switch_to next;
        incr switches
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

  let atomic ~profile f =
    let d = Domain.DLS.get dkey in
    if d.depth > 0 then
      (* Nested: the fence is already held; flatten into the enclosing
         substrate transaction (the substrates all flatten). *)
      substrates.(Atomic.get champion).atomic ~profile f
    else begin
      enter d;
      d.depth <- 1;
      match substrates.(Atomic.get champion).atomic ~profile f with
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
  let checkpoint ~acc = substrates.(Atomic.get champion).checkpoint ~acc
  let resume () = substrates.(Atomic.get champion).resume ()

  (* Counters: the four substrates' totals summed (only the champion
     accrues traffic at any time; runs reset first, so the sum is this
     run's work), then the meta-runtime's own: epoch decisions,
     substrate switches and the champion-occupancy breakdown. *)
  let stats () =
    Stm_stats.to_assoc
      (Array.fold_left
         (fun acc s -> Stm_stats.add acc (s.snapshot ()))
         Stm_stats.zero substrates)
    @ ("epoch_decisions", Array.fold_left ( + ) 0 occupancy)
      :: ("substrate_switches", !switches)
      :: List.init Policy.substrate_count (fun i ->
             ("champion_epochs_" ^ Policy.substrate_names.(i), occupancy.(i)))

  (* Reset contract (like every runtime): called quiescent, between
     runs. Re-crowns TL2 through the fence — tvars convert back on
     their next access — and zeroes substrate stats, dispatch
     demotions, policy state and epoch baselines. *)
  let reset_stats () =
    switch_to Policy.tl2;
    Array.iter (fun s -> s.reset_stats ()) substrates;
    Array.fill occupancy 0 Policy.substrate_count 0;
    switches := 0;
    Array.iteri (fun i s -> prev_snap.(i) <- s.snapshot ()) substrates;
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
