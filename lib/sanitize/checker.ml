(* Offline trace analysis. See checker.mli for the model.

   Vocabulary used throughout:
   - an "attempt" is one begin..(commit|rollback|next begin) span of a
     stream; its outcome is Committed, Rolledback (the operation raised
     and the runtime unwound) or Aborted (the runtime retried it);
   - an attempt is "effective" when its writes are part of the committed
     history: committed always, rolled-back too under runtimes that do
     not undo effects on failure (coarse/medium/seq);
   - version ids (wids) are globally unique; wid 0 and wids with no
     write event (tvars created mid-trace by [make]) are base versions:
     their writer is unknown but each appears at most once per tvar, so
     version chains still have a single root per tvar. *)

type profile = {
  rollback_on_failure : bool;
  lockset : bool;
  ranked_locks : (string * int) list;
}

(* Rank tables mirror the R3 lock-order declaration enforced statically
   by sb7-lint: structure before domain locks. bin/sb7_sanitize
   cross-checks this against Lint_config at startup. *)
let medium_ranks =
  ("structure", 0)
  :: List.init Sb7_runtime.Op_profile.num_domains (fun i ->
         (Printf.sprintf "domain-%d" i, i + 1))

let profile_of_runtime = function
  | "tl2" | "lsa" | "norec" | "etl" | "astm" | "tournament" ->
    (* ETL's encounter-time vlocks and the tournament's substrate
       locks are internal to the STMs, invisible to the trace: races
       surface through the opacity analyses, not the lockset. *)
    { rollback_on_failure = true; lockset = false; ranked_locks = [] }
  | "fine" ->
    (* per-tvar locks are anonymous: each guards only its own tvar, and
       none is ranked *)
    { rollback_on_failure = true; lockset = true; ranked_locks = [] }
  | "medium" ->
    { rollback_on_failure = false; lockset = true; ranked_locks = medium_ranks }
  | "coarse" ->
    { rollback_on_failure = false; lockset = true;
      ranked_locks = [ ("global", 0) ] }
  | _ (* seq and unknowns *) ->
    { rollback_on_failure = false; lockset = false; ranked_locks = [] }

type footprint = {
  checked : int;
  unknown_region : int;
  unknown_op : int;
  read_escapes : string list;
  write_escapes : string list;
}

type verdict = {
  domains : int;
  events : int;
  attempts : int;
  committed : int;
  aborted : int;
  rolled_back : int;
  structural_commits : int;
  opacity : string list;
  races : string list;
  lock_order : string list;
  structural : string list;
  footprint : footprint;
}

let with_structural v findings = { v with structural = v.structural @ findings }
let with_footprint v footprint = { v with footprint }

let clean v =
  v.opacity = [] && v.races = [] && v.lock_order = [] && v.structural = []
  && v.footprint.read_escapes = [] && v.footprint.write_escapes = []

(* Findings are capped per category so a badly broken run produces a
   readable report, with the overflow counted. *)
let max_findings = 10

type findings = {
  mutable msgs : string list; (* reversed *)
  mutable count : int;
}

let new_findings () = { msgs = []; count = 0 }

let add_finding f msg =
  f.count <- f.count + 1;
  if f.count <= max_findings then f.msgs <- msg :: f.msgs

let close_findings f =
  let msgs = List.rev f.msgs in
  if f.count > max_findings then
    msgs @ [ Printf.sprintf "... and %d more" (f.count - max_findings) ]
  else msgs

type outcome = Committed | Rolledback | Aborted

let outcome_name = function
  | Committed -> "committed"
  | Rolledback -> "rolled-back"
  | Aborted -> "aborted"

type attempt = {
  a_domain : int;
  a_seq : int; (* ordinal within its domain's stream, for messages *)
  a_flags : int;
  mutable a_outcome : outcome;
  a_reads : (int, int) Hashtbl.t; (* sid -> first non-own wid observed *)
  mutable a_writes : (int * int * int) list; (* sid, wid, prev; reversed *)
  a_own : (int, unit) Hashtbl.t; (* wids this attempt wrote *)
  mutable a_node : int; (* serialization-graph node id; -1 if not effective *)
}

let describe a =
  Printf.sprintf "domain %d attempt #%d (%s)" a.a_domain a.a_seq
    (outcome_name a.a_outcome)

(* begin; read; write; commit; rollback; acquire; release; partial *)
let arity = [| 4; 3; 4; 3; 1; 3; 3; 3 |]

let analyze ~profile (dump : Trace.dump) =
  let opacity = new_findings () in
  let races = new_findings () in
  let order = new_findings () in

  (* ---- Pass 1: slice streams into attempts. A [tag_partial] event
     truncates the running attempt's event log to a kept prefix, so
     the per-sid read/write tables can only be built once the attempt
     finishes — the events are collected in order first. ------------- *)
  let attempts_rev = ref [] in
  let n_attempts = ref 0 in
  let events = ref 0 in
  Array.iteri
    (fun dom stream ->
      let cur = ref None in
      let seq = ref 0 in
      (* Ordered event log of the current attempt (reused across
         attempts of the stream). *)
      let r_sid = ref (Array.make 64 0) and r_wid = ref (Array.make 64 0) in
      let nr = ref 0 in
      let w_sid = ref (Array.make 16 0)
      and w_wid = ref (Array.make 16 0)
      and w_prev = ref (Array.make 16 0) in
      let nw = ref 0 in
      let push_r sid wid =
        if !nr = Array.length !r_sid then begin
          r_sid := Array.append !r_sid (Array.make !nr 0);
          r_wid := Array.append !r_wid (Array.make !nr 0)
        end;
        !r_sid.(!nr) <- sid;
        !r_wid.(!nr) <- wid;
        incr nr
      in
      let push_w sid wid prev =
        if !nw = Array.length !w_sid then begin
          w_sid := Array.append !w_sid (Array.make !nw 0);
          w_wid := Array.append !w_wid (Array.make !nw 0);
          w_prev := Array.append !w_prev (Array.make !nw 0)
        end;
        !w_sid.(!nw) <- sid;
        !w_wid.(!nw) <- wid;
        !w_prev.(!nw) <- prev;
        incr nw
      in
      let finish outcome =
        match !cur with
        | None -> ()
        | Some a ->
          a.a_outcome <- outcome;
          for j = 0 to !nw - 1 do
            Hashtbl.replace a.a_own !w_wid.(j) ();
            a.a_writes <- (!w_sid.(j), !w_wid.(j), !w_prev.(j)) :: a.a_writes
          done;
          (* Replay the retained reads in order: first non-own wid per
             sid, any later different wid is a non-repeatable read.
             (Own-wid reads can be classified after the fact because
             wids are created at write time — a read can never observe
             an own write that has not happened yet.) *)
          for j = 0 to !nr - 1 do
            let sid = !r_sid.(j) and wid = !r_wid.(j) in
            if not (Hashtbl.mem a.a_own wid) then begin
              match Hashtbl.find_opt a.a_reads sid with
              | None -> Hashtbl.add a.a_reads sid wid
              | Some w0 when w0 = wid -> ()
              | Some w0 ->
                add_finding opacity
                  (Printf.sprintf
                     "non-repeatable read: %s saw tvar %d at version %d, \
                      then at version %d, without writing it"
                     (describe a) sid w0 wid)
            end
          done;
          cur := None
      in
      let i = ref 0 in
      let n = Array.length stream in
      while !i < n do
        let tag = stream.(!i) in
        incr events;
        (if tag = Trace.tag_begin then begin
           (* an unfinished predecessor was aborted and retried *)
           finish Aborted;
           incr seq;
           let a =
             { a_domain = dom; a_seq = !seq; a_flags = stream.(!i + 1);
               a_outcome = Aborted; a_reads = Hashtbl.create 8;
               a_writes = []; a_own = Hashtbl.create 4; a_node = -1 }
           in
           incr n_attempts;
           attempts_rev := a :: !attempts_rev;
           cur := Some a;
           nr := 0;
           nw := 0
         end
         else if tag = Trace.tag_read then begin
           match !cur with
           | None -> () (* read outside any attempt: nothing to check *)
           | Some _ -> push_r stream.(!i + 1) stream.(!i + 2)
         end
         else if tag = Trace.tag_write then begin
           match !cur with
           | None -> ()
           | Some _ -> push_w stream.(!i + 1) stream.(!i + 2) stream.(!i + 3)
         end
         else if tag = Trace.tag_partial then begin
           (* Partial abort: only the announced event prefix survives;
              the same attempt continues. min-guard against malformed
              (synthetic) traces claiming more than was logged. *)
           match !cur with
           | None -> ()
           | Some _ ->
             nr := min !nr stream.(!i + 1);
             nw := min !nw stream.(!i + 2)
         end
         else if tag = Trace.tag_commit then finish Committed
         else if tag = Trace.tag_rollback then finish Rolledback);
        (* acquire/release handled in the lockset pass *)
        i := !i + arity.(tag)
      done;
      finish Aborted)
    dump.streams;
  let attempts = Array.of_list (List.rev !attempts_rev) in

  let committed = ref 0 and aborted = ref 0 and rolled_back = ref 0 in
  Array.iter
    (fun a ->
      match a.a_outcome with
      | Committed -> incr committed
      | Aborted -> incr aborted
      | Rolledback -> incr rolled_back)
    attempts;

  let effective a =
    match a.a_outcome with
    | Committed -> true
    | Rolledback -> not profile.rollback_on_failure
    | Aborted -> false
  in

  let structural_commits = ref 0 in
  Array.iter
    (fun a ->
      if effective a && a.a_flags land Trace.flag_structural <> 0 then
        incr structural_commits)
    attempts;

  (* ---- Pass 2: version chains and the writer index. ---------------- *)
  (* wid -> writing attempt, over ALL attempts (dirty-read detection
     needs aborted writers too). *)
  let wid_writer : (int, attempt) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun a ->
      List.iter (fun (_, wid, _) -> Hashtbl.replace wid_writer wid a) a.a_writes)
    attempts;

  (* Per tvar, the successor of each version among effective writes:
     sid -> (prev wid -> wid). Two effective writes sharing a [prev] are
     a fork in the chain — the second overwrote the first without having
     seen it: a lost update. *)
  let succ : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun a ->
      if effective a then
        List.iter
          (fun (sid, wid, prev) ->
            let tbl =
              match Hashtbl.find_opt succ sid with
              | Some t -> t
              | None ->
                let t = Hashtbl.create 8 in
                Hashtbl.add succ sid t;
                t
            in
            match Hashtbl.find_opt tbl prev with
            | None -> Hashtbl.add tbl prev wid
            | Some w' when w' = wid -> ()
            | Some w' ->
              add_finding opacity
                (Printf.sprintf
                   "lost update on tvar %d: versions %d (%s) and %d (%s) \
                    both overwrote version %d"
                   sid w'
                   (describe (Hashtbl.find wid_writer w'))
                   wid (describe a) prev))
          (List.rev a.a_writes))
    attempts;

  let effective_writer wid =
    match Hashtbl.find_opt wid_writer wid with
    | Some w when effective w -> Some w
    | _ -> None
  in
  let succ_of sid wid =
    match Hashtbl.find_opt succ sid with
    | None -> None
    | Some tbl -> Hashtbl.find_opt tbl wid
  in

  (* Dirty reads: observing a version whose writer never took effect.
     Buffered runtimes can't produce these; in-place ones only by
     leaking state mid-rollback. *)
  Array.iter
    (fun a ->
      Hashtbl.iter
        (fun sid wid ->
          match Hashtbl.find_opt wid_writer wid with
          | Some w when not (effective w) ->
            add_finding opacity
              (Printf.sprintf
                 "dirty read: %s saw tvar %d at version %d written by %s"
                 (describe a) sid wid (describe w))
          | _ -> ())
        a.a_reads)
    attempts;

  (* ---- Pass 3: multi-version serialization graph over effective
     attempts. Edges: WW (chain adjacency), WR (writer -> reader),
     RW (reader -> writer of the successor version). A topological
     order is a witness serialization; a cycle is a violation. -------- *)
  let nodes = ref [] in
  let n_nodes = ref 0 in
  Array.iter
    (fun a ->
      if effective a then begin
        a.a_node <- !n_nodes;
        incr n_nodes;
        nodes := a :: !nodes
      end)
    attempts;
  let node_attempt = Array.of_list (List.rev !nodes) in
  let m = !n_nodes in
  let adj = Array.make m [] in
  let indeg = Array.make m 0 in
  let edge_seen : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let add_edge u v =
    if u <> v && u >= 0 && v >= 0 then begin
      let key = (u * m) + v in
      if not (Hashtbl.mem edge_seen key) then begin
        Hashtbl.add edge_seen key ();
        adj.(u) <- v :: adj.(u);
        indeg.(v) <- indeg.(v) + 1
      end
    end
  in
  let node_of_wid wid =
    match effective_writer wid with Some w -> w.a_node | None -> -1
  in
  Array.iter
    (fun a ->
      if effective a then
        List.iter
          (fun (sid, wid, prev) ->
            ignore sid;
            add_edge (node_of_wid prev) (node_of_wid wid))
          a.a_writes)
    attempts;
  Array.iter
    (fun a ->
      if effective a then
        Hashtbl.iter
          (fun sid wid ->
            add_edge (node_of_wid wid) a.a_node;
            match succ_of sid wid with
            | Some w2 -> add_edge a.a_node (node_of_wid w2)
            | None -> ())
          a.a_reads)
    attempts;

  (* Kahn. [pos] is the serialization position of each node. *)
  let pos = Array.make m max_int in
  let q = Queue.create () in
  let indeg' = Array.copy indeg in
  Array.iteri (fun u d -> if d = 0 then Queue.add u q) indeg';
  let placed = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    pos.(u) <- !placed;
    incr placed;
    List.iter
      (fun v ->
        indeg'.(v) <- indeg'.(v) - 1;
        if indeg'.(v) = 0 then Queue.add v q)
      adj.(u)
  done;
  let cyclic = !placed < m in
  if cyclic then begin
    let members = ref [] and n_members = ref 0 in
    Array.iteri
      (fun u d ->
        if d > 0 && pos.(u) = max_int then begin
          incr n_members;
          if !n_members <= 5 then members := describe node_attempt.(u) :: !members
        end)
      indeg';
    add_finding opacity
      (Printf.sprintf
         "committed history is not serializable: %d transactions form \
          dependency cycles (%s%s)"
         !n_members
         (String.concat ", " (List.rev !members))
         (if !n_members > 5 then ", ..." else ""))
  end;

  (* ---- Pass 4: snapshot windows. Every attempt — aborted ones
     included, that is the opacity part — must fit its reads into one
     instant of the witness serialization: each read of version [w] is
     valid from pos(writer w) until pos(writer (succ w)). An empty
     intersection is confirmed as a real violation via reachability in
     the graph (a single topological order can misorder concurrent
     commits, so the window test alone only raises a suspicion). Skipped
     when the graph is cyclic: there is no witness order to test
     against, and the cycle is already reported.

     Only attempts that did not take effect are tested. An effective
     attempt [a] is a node with the edge lo -> a (it read lo's version;
     own writes are not reads, so lo <> a) and either a -> hi or hi = a
     (hi overwrote a version it read), so a path hi ->* lo would close
     a cycle, which Pass 3 reports. And every edge goes forward in
     [pos], so the search for a path to [dst] never needs a node placed
     after [dst]. ----------------------------------------------------- *)
  if not cyclic then begin
    let reachable src dst =
      if src = dst then true
      else begin
        let seen = Hashtbl.create 64 in
        let stack = ref [ src ] in
        let found = ref false in
        while not !found && !stack <> [] do
          match !stack with
          | [] -> ()
          | u :: rest ->
            stack := rest;
            if not (Hashtbl.mem seen u) then begin
              Hashtbl.add seen u ();
              List.iter
                (fun v ->
                  if v = dst then found := true
                  else if pos.(v) < pos.(dst) && not (Hashtbl.mem seen v)
                  then stack := v :: !stack)
                adj.(u)
            end
        done;
        !found
      end
    in
    Array.iter
      (fun a ->
        if (not (effective a)) && Hashtbl.length a.a_reads > 1 then begin
          (* lo: latest writer among observed versions; hi: earliest
             overwriter. Base versions (unknown writer) are valid from
             the start of time; versions never overwritten, to the end. *)
          let maxlo = ref (-1) and lo_read = ref None in
          let minhi = ref max_int and hi_read = ref None in
          Hashtbl.iter
            (fun sid wid ->
              (match node_of_wid wid with
              | -1 -> ()
              | u ->
                if pos.(u) > !maxlo then begin
                  maxlo := pos.(u);
                  lo_read := Some (sid, wid, u)
                end);
              match succ_of sid wid with
              | None -> ()
              | Some w2 -> (
                match node_of_wid w2 with
                | -1 -> ()
                | u ->
                  if pos.(u) < !minhi then begin
                    minhi := pos.(u);
                    hi_read := Some (sid, wid, u)
                  end))
            a.a_reads;
          match (!lo_read, !hi_read) with
          | Some (lo_sid, lo_wid, lo_node), Some (hi_sid, hi_wid, hi_node)
            when !maxlo >= !minhi
                 && (lo_sid, lo_wid) <> (hi_sid, hi_wid)
                 && reachable hi_node lo_node ->
            add_finding opacity
              (Printf.sprintf
                 "inconsistent snapshot: %s read tvar %d at version %d, \
                  already overwritten by %s, together with tvar %d at \
                  version %d, written only later by %s"
                 (describe a) hi_sid hi_wid
                 (describe node_attempt.(hi_node))
                 lo_sid lo_wid
                 (describe node_attempt.(lo_node)))
          | _ -> ()
        end)
      attempts
  end;

  (* ---- Pass 5: lockset race + lock-order analysis. ----------------- *)
  if profile.lockset then begin
    let anonymous uid = uid >= Sb7_rwlock.Lock_hooks.anonymous_base in
    let lock_name uid =
      if anonymous uid then
        Printf.sprintf "tvar-lock#%d" (uid - Sb7_rwlock.Lock_hooks.anonymous_base)
      else
        match List.assoc_opt uid dump.locks with
        | Some n -> n
        | None -> Printf.sprintf "lock#%d" uid
    in
    let rank_of =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (uid, name) ->
          match List.assoc_opt name profile.ranked_locks with
          | Some r -> Hashtbl.add tbl uid r
          | None -> ())
        dump.locks;
      fun uid -> Hashtbl.find_opt tbl uid
    in
    (* Access signature = the locks that can order the access, each
       with the strongest mode it is held in, sorted by uid: the named
       locks held, plus the accessed tvar's own per-tvar lock while it
       is held (bound by the trace.mli contract). Another tvar's lock
       orders nothing and is left out. Per tvar we bucket accesses by
       signature and record which domains and access kinds hit each
       bucket; the pairwise check below then needs only the (few)
       distinct signatures, not the (many) accesses. *)
    let sigs = Hashtbl.create 256 in
    let order_reported = Hashtbl.create 16 in
    Array.iteri
      (fun dom stream ->
        (* named locks held, as a sorted (uid, exclusive) list;
           anonymous ones held (uid -> exclusive); and the per-tvar
           lock each accessed tvar is bound to (sid -> uid) *)
        let named = ref [] in
        let anon = Hashtbl.create 64 and guard = Hashtbl.create 256 in
        let pending = ref (-1) in
        let record ~bound sid ~write =
          if bound >= 0 then Hashtbl.replace guard sid bound;
          let locks =
            match Hashtbl.find_opt guard sid with
            | Some uid when Hashtbl.mem anon uid ->
              !named @ [ (uid, Hashtbl.find anon uid) ]
            | _ -> !named
          in
          let per_sid =
            match Hashtbl.find_opt sigs sid with
            | Some t -> t
            | None ->
              let t = Hashtbl.create 4 in
              Hashtbl.add sigs sid t;
              t
          in
          match Hashtbl.find_opt per_sid locks with
          | Some (w, doms) ->
            if write then w := true;
            doms := !doms lor (1 lsl dom)
          | None -> Hashtbl.add per_sid locks (ref write, ref (1 lsl dom))
        in
        let i = ref 0 in
        let n = Array.length stream in
        while !i < n do
          let tag = stream.(!i) in
          (* an anonymous acquire binds only the very next event *)
          let bound = !pending in
          pending := -1;
          (if tag = Trace.tag_acquire then begin
             let uid = stream.(!i + 1) in
             let excl = stream.(!i + 2) = 1 in
             (* re-entrant read->write upgrade keeps the strongest mode *)
             if anonymous uid then begin
               Hashtbl.replace anon uid
                 (excl || Hashtbl.find_opt anon uid = Some true);
               pending := uid
             end
             else begin
               (match rank_of uid with
               | None -> ()
               | Some r ->
                 List.iter
                   (fun (held_uid, _) ->
                     match rank_of held_uid with
                     | Some r' when r' > r ->
                       let key = (held_uid, uid) in
                       if not (Hashtbl.mem order_reported key) then begin
                         Hashtbl.add order_reported key ();
                         add_finding order
                           (Printf.sprintf
                              "lock-order violation on domain %d: acquired \
                               %s while holding %s (declared order: %s first)"
                              dom (lock_name uid) (lock_name held_uid)
                              (lock_name uid))
                       end
                     | _ -> ())
                   !named);
               let excl = excl || List.assoc_opt uid !named = Some true in
               named :=
                 List.sort compare ((uid, excl) :: List.remove_assoc uid !named)
             end
           end
           else if tag = Trace.tag_release then begin
             let uid = stream.(!i + 1) in
             if anonymous uid then Hashtbl.remove anon uid
             else named := List.remove_assoc uid !named
           end
           else if tag = Trace.tag_read then
             record ~bound stream.(!i + 1) ~write:false
           else if tag = Trace.tag_write then
             record ~bound stream.(!i + 1) ~write:true);
          i := !i + arity.(tag)
        done)
      dump.streams;
    (* Pairwise signature check. A pair of accesses (at least one a
       write, from two different domains) is ordered iff the two
       signatures share a lock that at least one side holds exclusively.
       Note plain lockset intersection is NOT the criterion: medium's
       structural ops hold structure:W while traversals hold
       structure:R + domain:W — disjoint write-locks, yet perfectly
       ordered by the shared structure lock. *)
    let protects (l1 : (int * bool) list) (l2 : (int * bool) list) =
      List.exists
        (fun (uid, excl) ->
          match List.assoc_opt uid l2 with
          | Some excl2 -> excl || excl2
          | None -> false)
        l1
    in
    let multi_bit x = x land (x - 1) <> 0 in
    let sig_str locks =
      if locks = [] then "no locks"
      else
        String.concat ","
          (List.map
             (fun (uid, excl) ->
               Printf.sprintf "%s:%c" (lock_name uid) (if excl then 'W' else 'R'))
             locks)
    in
    Hashtbl.iter
      (fun sid per_sid ->
        let buckets =
          Hashtbl.fold
            (fun locks (w, doms) acc -> (locks, !w, !doms) :: acc)
            per_sid []
        in
        let rec pairs = function
          | [] -> ()
          | ((l1, w1, d1) as b1) :: rest ->
            List.iter
              (fun (l2, w2, d2) ->
                if (w1 || w2) && multi_bit (d1 lor d2) && not (protects l1 l2)
                then
                  add_finding races
                    (Printf.sprintf
                       "data race on tvar %d: %s access under [%s] vs %s \
                        access under [%s] share no ordering lock"
                       sid
                       (if w1 then "write" else "read")
                       (sig_str l1)
                       (if w2 then "write" else "read")
                       (sig_str l2)))
              (b1 :: rest);
            pairs rest
        in
        pairs buckets)
      sigs
  end;

  {
    domains = Array.length dump.streams;
    events = !events;
    attempts = !n_attempts;
    committed = !committed;
    aborted = !aborted;
    rolled_back = !rolled_back;
    structural_commits = !structural_commits;
    opacity = close_findings opacity;
    races = close_findings races;
    lock_order = close_findings order;
    structural = [];
    footprint =
      {
        checked = 0;
        unknown_region = 0;
        unknown_op = 0;
        read_escapes = [];
        write_escapes = [];
      };
  }

let summary v =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "sanitizer: %d domains, %d events, %d attempts (%d committed, %d \
        aborted, %d rolled back, %d structural commits)\n"
       v.domains v.events v.attempts v.committed v.aborted v.rolled_back
       v.structural_commits);
  let section ?(note = "") name msgs =
    Buffer.add_string b
      (Printf.sprintf "  %-12s %s%s\n" (name ^ ":")
         (if msgs = [] then "clean"
          else Printf.sprintf "%d finding(s)" (List.length msgs))
         note);
    List.iter (fun m -> Buffer.add_string b (Printf.sprintf "    - %s\n" m)) msgs
  in
  section "opacity" v.opacity;
  section "races" v.races;
  section "lock-order" v.lock_order;
  section "structural" v.structural;
  let fp = v.footprint in
  section "footprint"
    (fp.read_escapes @ fp.write_escapes)
    ~note:
      (Printf.sprintf " (%d accesses checked, %d unknown-region, %d unknown-op)"
         fp.checked fp.unknown_region fp.unknown_op);
  Buffer.contents b

let csv_cell v =
  if clean v then "clean"
  else
    Printf.sprintf
      "flagged;opacity=%d;races=%d;order=%d;structural=%d;footprint=%d"
      (List.length v.opacity) (List.length v.races)
      (List.length v.lock_order)
      (List.length v.structural)
      (List.length v.footprint.read_escapes
      + List.length v.footprint.write_escapes)

(* ---- Footprint replay: every traced tvar access must fall inside the
   operation's static may-footprint (lib/core/op_footprint.ml). The
   table is passed in as data — op name -> (may-read mask, may-write
   mask) over Region.to_int bit positions — so this module stays free
   of a dependency on the core. ---------------------------------------- *)

let region_name code =
  match Sb7_runtime.Region.of_int code with
  | Some r -> Sb7_runtime.Region.to_string r
  | None -> Printf.sprintf "region#%d" code

let footprint ~table (dump : Trace.dump) =
  let op_names = Hashtbl.create 64 in
  List.iter (fun (id, name) -> Hashtbl.add op_names id name) dump.Trace.ops;
  let sid_region = Hashtbl.create 4096 in
  Array.iter
    (fun (sid, region) ->
      if region >= 0 then Hashtbl.replace sid_region sid region)
    dump.Trace.regions;
  let checked = ref 0 in
  let unknown_region = ref 0 in
  let unknown_op = ref 0 in
  let read_escapes = new_findings () and write_escapes = new_findings () in
  let seen : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 16 in
  let escape ~op ~region ~write ~sid =
    let key = (op, region, write) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      add_finding
        (if write then write_escapes else read_escapes)
        (Printf.sprintf
           "footprint escape: operation %s %s tvar %d in region %s, \
            outside its static may-%s set"
           op
           (if write then "wrote" else "read")
           sid (region_name region)
           (if write then "write" else "read"))
    end
  in
  Array.iter
    (fun stream ->
      (* (name, read mask, write mask) of the current attempt's
         operation; None when unknown or outside the table. *)
      let cur = ref None in
      let i = ref 0 in
      let n = Array.length stream in
      while !i < n do
        let tag = stream.(!i) in
        (if tag = Trace.tag_begin then
           cur :=
             (match Hashtbl.find_opt op_names stream.(!i + 3) with
             | None -> None
             | Some name -> (
               match table name with
               | None -> None
               | Some (rmask, wmask) -> Some (name, rmask, wmask)))
         else if tag = Trace.tag_read || tag = Trace.tag_write then begin
           let write = tag = Trace.tag_write in
           match !cur with
           | None -> incr unknown_op
           | Some (op, rmask, wmask) -> (
             let sid = stream.(!i + 1) in
             match Hashtbl.find_opt sid_region sid with
             | None -> incr unknown_region
             | Some region ->
               incr checked;
               let mask = if write then wmask else rmask in
               if mask land (1 lsl region) = 0 then
                 escape ~op ~region ~write ~sid)
         end);
        i := !i + arity.(tag)
      done)
    dump.Trace.streams;
  {
    checked = !checked;
    unknown_region = !unknown_region;
    unknown_op = !unknown_op;
    read_escapes = close_findings read_escapes;
    write_escapes = close_findings write_escapes;
  }
