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
     version chains still have a single root per tvar.

   Layout. Every table consulted per event is an int array indexed by
   a dense number (the hash tables left are consulted once per named
   lock acquire or release, or per footprint escape), and
   per-attempt state is reset by stamping entries with the attempt's
   number instead of clearing them:
   - attempts are numbered in trace order (stream by stream), and held
     as parallel arrays; their retained first reads and writes are runs
     of flat arrays, in trace order;
   - a tvar's number is its sid's offset from the lowest sid the dump
     mentions, a version's is its wid's offset from the lowest nonzero
     wid plus one (0 stays 0), and a per-tvar lock's is its uid's offset
     from [Lock_hooks.anonymous_base] less the lowest such offset.
   A dump whose ids span more than [span_factor] times its event count
   (a synthetic or hand-edited trace) is first renumbered: each id kind
   is sorted once and every id replaced by its rank, in a copy of the
   streams, so the arrays stay linear in the dump's size. Findings name
   the original ids. *)

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

(* begin; read; write; commit; rollback; acquire; release; partial *)
let arity = [| 4; 3; 4; 3; 1; 3; 3; 3 |]

let anonymous_base = Sb7_rwlock.Lock_hooks.anonymous_base

(* ---- Id spaces. ------------------------------------------------------ *)

(* An id-indexed array may be this many times longer than the dump has
   events; a sparser id kind is renumbered first. *)
let span_factor = 4

(* One scan over the streams: the sizes the flat arrays need, and the
   lowest and highest id of each kind ([lo > hi] when there is none). *)
type scan = {
  events : int;
  begins : int;
  reads : int;
  writes : int;
  anons : int;  (** anonymous acquire and release events *)
  sid_lo : int;
  sid_hi : int;
  wid_lo : int;  (** over nonzero wids *)
  wid_hi : int;
  anon_lo : int;  (** over offsets from [anonymous_base] *)
  anon_hi : int;
}

let prescan streams =
  let events = ref 0 and begins = ref 0 and reads = ref 0 in
  let writes = ref 0 and anons = ref 0 in
  let slo = ref max_int and shi = ref min_int in
  let wlo = ref max_int and whi = ref min_int in
  let alo = ref max_int and ahi = ref min_int in
  for d = 0 to Array.length streams - 1 do
    let s = streams.(d) in
    let i = ref 0 in
    while !i < Array.length s do
      let tag = s.(!i) in
      incr events;
      if tag = Trace.tag_read || tag = Trace.tag_write then begin
        let sid = s.(!i + 1) in
        if sid < !slo then slo := sid;
        if sid > !shi then shi := sid;
        (* a write's wid and prev; a read's one wid, twice *)
        let w1 = s.(!i + 2) in
        let w2 = if tag = Trace.tag_write then s.(!i + 3) else w1 in
        if tag = Trace.tag_read then incr reads else incr writes;
        if w1 <> 0 then begin
          if w1 < !wlo then wlo := w1;
          if w1 > !whi then whi := w1
        end;
        if w2 <> 0 then begin
          if w2 < !wlo then wlo := w2;
          if w2 > !whi then whi := w2
        end
      end
      else if tag = Trace.tag_begin then incr begins
      else if
        (tag = Trace.tag_acquire || tag = Trace.tag_release)
        && s.(!i + 1) >= anonymous_base
      then begin
        let k = s.(!i + 1) - anonymous_base in
        incr anons;
        if k < !alo then alo := k;
        if k > !ahi then ahi := k
      end;
      i := !i + arity.(tag)
    done
  done;
  { events = !events; begins = !begins; reads = !reads; writes = !writes;
    anons = !anons; sid_lo = !slo; sid_hi = !shi; wid_lo = !wlo; wid_hi = !whi;
    anon_lo = !alo; anon_hi = !ahi }

let sparse sc lo hi =
  lo <= hi && (hi - lo < 0 (* overflow *) || hi - lo >= span_factor * sc.events)

let span lo hi = if lo <= hi then hi - lo + 1 else 0

(* The distinct values of [a.(0 .. n-1)], ascending. *)
let distinct a n =
  let a = Array.sub a 0 n in
  Array.sort Int.compare a;
  let k = ref 0 in
  Array.iteri
    (fun j x ->
      if j = 0 || x <> a.(!k - 1) then begin
        a.(!k) <- x;
        incr k
      end)
    a;
  Array.sub a 0 !k

(* The first index of the ascending array [u] whose value is at least
   [x] (the length of [u] if none is): [x]'s index when [u] holds it. *)
let rank (u : int array) x =
  let lo = ref 0 and hi = ref (Array.length u) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Renumber every id kind by rank, in a copy of the streams: sids to
   0..S-1, nonzero wids to 1..W, anonymous lock offsets to 0..A-1.
   Returns the copy and the sorted original ids of each kind. *)
let renumber streams sc =
  let sids = Array.make (sc.reads + sc.writes) 0 and ns = ref 0 in
  let wids = Array.make (sc.reads + (2 * sc.writes)) 0 and nw = ref 0 in
  let anons = Array.make sc.anons 0 and na = ref 0 in
  let push a n x =
    a.(!n) <- x;
    incr n
  in
  let wid w = if w <> 0 then push wids nw w in
  let each f =
    Array.iter
      (fun s ->
        let i = ref 0 in
        while !i < Array.length s do
          f s !i s.(!i);
          i := !i + arity.(s.(!i))
        done)
  in
  let anonymous s i tag =
    (tag = Trace.tag_acquire || tag = Trace.tag_release)
    && s.(i + 1) >= anonymous_base
  in
  each
    (fun s i tag ->
      if tag = Trace.tag_read || tag = Trace.tag_write then begin
        push sids ns s.(i + 1);
        wid s.(i + 2);
        if tag = Trace.tag_write then wid s.(i + 3)
      end
      else if anonymous s i tag then push anons na (s.(i + 1) - anonymous_base))
    streams;
  let us = distinct sids !ns and uw = distinct wids !nw
  and ua = distinct anons !na in
  let wrank w = if w = 0 then 0 else 1 + rank uw w in
  let copy = Array.map Array.copy streams in
  each
    (fun s i tag ->
      if tag = Trace.tag_read || tag = Trace.tag_write then begin
        s.(i + 1) <- rank us s.(i + 1);
        s.(i + 2) <- wrank s.(i + 2);
        if tag = Trace.tag_write then s.(i + 3) <- wrank s.(i + 3)
      end
      else if anonymous s i tag then
        s.(i + 1) <- anonymous_base + rank ua (s.(i + 1) - anonymous_base))
    copy;
  (copy, us, uw, ua)

(* A growable int array. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 16 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let analyze ~profile (dump : Trace.dump) =
  let opacity = new_findings () in
  let races = new_findings () in
  let order = new_findings () in
  let sc = prescan dump.streams in
  let sc, streams, sid_name, wid_name, anon_name =
    if
      sparse sc sc.sid_lo sc.sid_hi
      || sparse sc sc.wid_lo sc.wid_hi
      || sparse sc sc.anon_lo sc.anon_hi
    then begin
      let copy, us, uw, ua = renumber dump.streams sc in
      ( { sc with sid_lo = 0; sid_hi = Array.length us - 1; wid_lo = 1;
          wid_hi = Array.length uw; anon_lo = 0; anon_hi = Array.length ua - 1 },
        copy,
        (fun s -> us.(s)),
        (fun w -> if w = 0 then 0 else uw.(w - 1)),
        fun k -> ua.(k) )
    end
    else (sc, dump.streams, Fun.id, Fun.id, Fun.id)
  in
  let slo = sc.sid_lo and n_sids = span sc.sid_lo sc.sid_hi in
  let wlo = sc.wid_lo and n_wids = 1 + span sc.wid_lo sc.wid_hi in
  let sidx sid = sid - slo in
  let widx w = if w = 0 then 0 else w - wlo + 1 in
  let wid_of_index j = if j = 0 then 0 else j + wlo - 1 in

  (* ---- Pass 1: slice streams into attempts. A [tag_partial] event
     truncates the running attempt's event log to a kept prefix, so
     which reads are first reads is only known once the attempt
     finishes. The attempt's writes and reads go straight to the end
     of the flat arrays (a truncation shortens them); finishing the
     attempt compacts its logged reads, in place, to its first
     reads. ------------------------------------------------------------ *)
  let n_att = sc.begins in
  let a_dom = Array.make n_att 0 and a_seq = Array.make n_att 0 in
  let a_flags = Array.make n_att 0 and a_out = Array.make n_att Aborted in
  (* attempt [a]'s first reads are [a_r0.(a) .. a_r0.(a+1) - 1] of the
     flat read arrays, its retained writes likewise *)
  let a_r0 = Array.make (n_att + 1) 0 and a_w0 = Array.make (n_att + 1) 0 in
  let rd_sid = Array.make sc.reads 0 and rd_wid = Array.make sc.reads 0 in
  let wr_sid = Array.make sc.writes 0 and wr_wid = Array.make sc.writes 0 in
  let wr_prev = Array.make sc.writes 0 in
  (* the finished attempts' first reads end at [rtop], and the running
     attempt's [nlog] logged reads follow them *)
  let rtop = ref 0 and nlog = ref 0 and wtop = ref 0 in
  (* stamps: the last attempt that wrote a version, that read a tvar;
     and the version of that first read *)
  let written_by = Array.make n_wids (-1) in
  let read_by = Array.make n_sids (-1) and first = Array.make n_sids 0 in
  let describe a =
    Printf.sprintf "domain %d attempt #%d (%s)" a_dom.(a) a_seq.(a)
      (outcome_name a_out.(a))
  in
  let finish a outcome =
    a_out.(a) <- outcome;
    for j = a_w0.(a) to !wtop - 1 do
      written_by.(widx wr_wid.(j)) <- a
    done;
    (* Replay the retained reads in order: first non-own wid per sid,
       any later different wid is a non-repeatable read. (Own-wid reads
       can be classified after the fact because wids are created at
       write time — a read can never observe an own write that has not
       happened yet.) *)
    a_r0.(a) <- !rtop;
    let log = !rtop in
    for j = log to log + !nlog - 1 do
      let sid = rd_sid.(j) and wid = rd_wid.(j) in
      if written_by.(widx wid) <> a then begin
        let s = sidx sid in
        if read_by.(s) <> a then begin
          read_by.(s) <- a;
          first.(s) <- wid;
          rd_sid.(!rtop) <- sid;
          rd_wid.(!rtop) <- wid;
          incr rtop
        end
        else if first.(s) <> wid then
          add_finding opacity
            (Printf.sprintf
               "non-repeatable read: %s saw tvar %d at version %d, then at \
                version %d, without writing it"
               (describe a) (sid_name sid) (wid_name first.(s)) (wid_name wid))
      end
    done;
    nlog := 0
  in
  let n_attempts = ref 0 in
  Array.iteri
    (fun dom stream ->
      let cur = ref (-1) in
      let seq = ref 0 in
      let i = ref 0 in
      let n = Array.length stream in
      while !i < n do
        let tag = stream.(!i) in
        (if tag = Trace.tag_begin then begin
           (* an unfinished predecessor was aborted and retried *)
           if !cur >= 0 then finish !cur Aborted;
           incr seq;
           let a = !n_attempts in
           incr n_attempts;
           a_dom.(a) <- dom;
           a_seq.(a) <- !seq;
           a_flags.(a) <- stream.(!i + 1);
           a_w0.(a) <- !wtop;
           cur := a
         end
         else if !cur < 0 then () (* outside any attempt: nothing to check *)
         else if tag = Trace.tag_read then begin
           rd_sid.(!rtop + !nlog) <- stream.(!i + 1);
           rd_wid.(!rtop + !nlog) <- stream.(!i + 2);
           incr nlog
         end
         else if tag = Trace.tag_write then begin
           wr_sid.(!wtop) <- stream.(!i + 1);
           wr_wid.(!wtop) <- stream.(!i + 2);
           wr_prev.(!wtop) <- stream.(!i + 3);
           incr wtop
         end
         else if tag = Trace.tag_partial then begin
           (* Partial abort: only the announced event prefix survives;
              the same attempt continues. The bounds guard against
              malformed (synthetic) traces claiming more than was
              logged. *)
           nlog := max 0 (min !nlog stream.(!i + 1));
           let w0 = a_w0.(!cur) in
           wtop := max w0 (min !wtop (w0 + stream.(!i + 2)))
         end
         else if tag = Trace.tag_commit then begin
           finish !cur Committed;
           cur := -1
         end
         else if tag = Trace.tag_rollback then begin
           finish !cur Rolledback;
           cur := -1
         end);
        (* acquire/release handled in the lockset pass *)
        i := !i + arity.(tag)
      done;
      if !cur >= 0 then finish !cur Aborted)
    streams;
  a_r0.(n_att) <- !rtop;
  a_w0.(n_att) <- !wtop;

  let committed = ref 0 and aborted = ref 0 and rolled_back = ref 0 in
  Array.iter
    (function
      | Committed -> incr committed
      | Aborted -> incr aborted
      | Rolledback -> incr rolled_back)
    a_out;

  let effective a =
    match a_out.(a) with
    | Committed -> true
    | Rolledback -> not profile.rollback_on_failure
    | Aborted -> false
  in

  let structural_commits = ref 0 in
  for a = 0 to n_att - 1 do
    if effective a && a_flags.(a) land Trace.flag_structural <> 0 then
      incr structural_commits
  done;

  (* ---- Pass 2: version chains and the writer index. ---------------- *)
  (* version -> writing attempt, over ALL attempts (dirty-read
     detection needs aborted writers too) *)
  let writer = Array.make n_wids (-1) in
  for a = 0 to n_att - 1 do
    for j = a_w0.(a) to a_w0.(a + 1) - 1 do
      writer.(widx wr_wid.(j)) <- a
    done
  done;

  (* The successor of each version among effective writes, as a version
     number: per version for nonzero wids, which belong to one tvar,
     and per tvar for its base version 0. Two effective writes sharing
     a [prev] are a fork in the chain — the second overwrote the first
     without having seen it: a lost update. *)
  let succ = Array.make n_wids (-1) and base_succ = Array.make n_sids (-1) in
  for a = 0 to n_att - 1 do
    if effective a then
      for j = a_w0.(a) to a_w0.(a + 1) - 1 do
        let sid = wr_sid.(j) and wid = wr_wid.(j) and prev = wr_prev.(j) in
        let w' = if prev = 0 then base_succ.(sidx sid) else succ.(widx prev) in
        if w' < 0 then begin
          if prev = 0 then base_succ.(sidx sid) <- widx wid
          else succ.(widx prev) <- widx wid
        end
        else if w' <> widx wid then
          add_finding opacity
            (Printf.sprintf
               "lost update on tvar %d: versions %d (%s) and %d (%s) both \
                overwrote version %d"
               (sid_name sid)
               (wid_name (wid_of_index w'))
               (describe writer.(w'))
               (wid_name wid) (describe a) (wid_name prev))
      done
  done;
  let succ_of sid wid = if wid = 0 then base_succ.(sidx sid) else succ.(widx wid) in

  (* Dirty reads: observing a version whose writer never took effect.
     Buffered runtimes can't produce these; in-place ones only by
     leaking state mid-rollback. Intermediate reads: observing a
     version its own writer overwrote, a state no serialization shows. *)
  for a = 0 to n_att - 1 do
    for j = a_r0.(a) to a_r0.(a + 1) - 1 do
      let sid = rd_sid.(j) and wid = rd_wid.(j) in
      let w = writer.(widx wid) in
      if w >= 0 then
        if not (effective w) then
          add_finding opacity
            (Printf.sprintf
               "dirty read: %s saw tvar %d at version %d written by %s"
               (describe a) (sid_name sid) (wid_name wid) (describe w))
        else
          let s = succ_of sid wid in
          if s >= 0 && writer.(s) = w then
            add_finding opacity
              (Printf.sprintf
                 "intermediate read: %s saw tvar %d at version %d, which \
                  its writer %s overwrote itself with version %d"
                 (describe a) (sid_name sid) (wid_name wid) (describe w)
                 (wid_name (wid_of_index s)))
    done
  done;

  (* ---- Pass 3: multi-version serialization graph over effective
     attempts. Edges: WW (chain adjacency), WR (writer -> reader),
     RW (reader -> writer of the successor version). A topological
     order is a witness serialization; a cycle is a violation. The
     graph is in CSR form: the targets of node [u] are
     [adj.(start.(u) .. start.(u+1) - 1)]. -------------------------- *)
  let a_node = Array.make n_att (-1) in
  let m = ref 0 in
  for a = 0 to n_att - 1 do
    if effective a then begin
      a_node.(a) <- !m;
      incr m
    end
  done;
  let m = !m in
  let node_att = Array.make m 0 in
  Array.iteri (fun a u -> if u >= 0 then node_att.(u) <- a) a_node;
  (* version -> node of its effective writer, or -1 *)
  let wnode = Array.map (fun a -> if a < 0 then -1 else a_node.(a)) writer in
  let node_of_wid wid = wnode.(widx wid) in
  (* [each_edge f] calls [f u v] on every edge, in generation order:
     one sweep counts each node's edges, a second fills them in *)
  let each_edge f =
    let edge u v = if u <> v && u >= 0 && v >= 0 then f u v in
    for a = 0 to n_att - 1 do
      if a_node.(a) >= 0 then
        for j = a_w0.(a) to a_w0.(a + 1) - 1 do
          edge (node_of_wid wr_prev.(j)) (node_of_wid wr_wid.(j))
        done
    done;
    for a = 0 to n_att - 1 do
      let u = a_node.(a) in
      if u >= 0 then
        for j = a_r0.(a) to a_r0.(a + 1) - 1 do
          let sid = rd_sid.(j) and wid = rd_wid.(j) in
          edge (node_of_wid wid) u;
          let s = succ_of sid wid in
          if s >= 0 then edge u wnode.(s)
        done
    done
  in
  let start = Array.make (m + 1) 0 in
  each_edge (fun u _ -> start.(u + 1) <- start.(u + 1) + 1);
  for u = 1 to m do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let fill = Array.copy start in
  let adj = Array.make start.(m) 0 in
  each_edge (fun u v ->
      adj.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1);
  (* drop duplicate edges: [stamp.(v) = u] once u -> v is kept *)
  let stamp = Array.make m (-1) and indeg = Array.make m 0 in
  let kept = ref 0 in
  for u = 0 to m - 1 do
    let b = start.(u) and e = start.(u + 1) in
    start.(u) <- !kept;
    for k = b to e - 1 do
      let v = adj.(k) in
      if stamp.(v) <> u then begin
        stamp.(v) <- u;
        adj.(!kept) <- v;
        incr kept;
        indeg.(v) <- indeg.(v) + 1
      end
    done
  done;
  start.(m) <- !kept;

  (* Kahn. [pos] is the serialization position of each node. *)
  let pos = Array.make m max_int in
  let queue = Array.make m 0 and qh = ref 0 and qt = ref 0 in
  for u = 0 to m - 1 do
    if indeg.(u) = 0 then begin
      queue.(!qt) <- u;
      incr qt
    end
  done;
  while !qh < !qt do
    let u = queue.(!qh) in
    pos.(u) <- !qh;
    incr qh;
    for k = start.(u) to start.(u + 1) - 1 do
      let v = adj.(k) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        queue.(!qt) <- v;
        incr qt
      end
    done
  done;
  let cyclic = !qh < m in
  if cyclic then begin
    let members = ref [] and n_members = ref 0 in
    Array.iteri
      (fun u d ->
        if d > 0 && pos.(u) = max_int then begin
          incr n_members;
          if !n_members <= 5 then members := describe node_att.(u) :: !members
        end)
      indeg;
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
     after [dst]. Ties between reads go to the earliest in trace
     order. ------------------------------------------------------------ *)
  if not cyclic then begin
    let seen = Array.make m (-1) and query = ref 0 in
    let stack = Array.make (!kept + 1) 0 in
    let reachable src dst =
      src = dst
      ||
      let q = !query in
      incr query;
      let sp = ref 1 and found = ref false in
      stack.(0) <- src;
      while (not !found) && !sp > 0 do
        decr sp;
        let u = stack.(!sp) in
        if seen.(u) <> q then begin
          seen.(u) <- q;
          for k = start.(u) to start.(u + 1) - 1 do
            let v = adj.(k) in
            if v = dst then found := true
            else if pos.(v) < pos.(dst) && seen.(v) <> q then begin
              stack.(!sp) <- v;
              incr sp
            end
          done
        end
      done;
      !found
    in
    for a = 0 to n_att - 1 do
      let r0 = a_r0.(a) and r1 = a_r0.(a + 1) in
      if (not (effective a)) && r1 - r0 > 1 then begin
        (* lo: latest writer among observed versions; hi: earliest
           overwriter. Base versions (unknown writer) are valid from
           the start of time; versions never overwritten, to the end. *)
        let maxlo = ref (-1) and lo = ref (-1) and lo_node = ref (-1) in
        let minhi = ref max_int and hi = ref (-1) and hi_node = ref (-1) in
        for j = r0 to r1 - 1 do
          let u = node_of_wid rd_wid.(j) in
          if u >= 0 && pos.(u) > !maxlo then begin
            maxlo := pos.(u);
            lo := j;
            lo_node := u
          end;
          let s = succ_of rd_sid.(j) rd_wid.(j) in
          if s >= 0 then begin
            let u = wnode.(s) in
            if u >= 0 && pos.(u) < !minhi then begin
              minhi := pos.(u);
              hi := j;
              hi_node := u
            end
          end
        done;
        if
          !lo >= 0 && !hi >= 0 && !maxlo >= !minhi && !lo <> !hi
          && reachable !hi_node !lo_node
        then
          add_finding opacity
            (Printf.sprintf
               "inconsistent snapshot: %s read tvar %d at version %d, \
                already overwritten by %s, together with tvar %d at version \
                %d, written only later by %s"
               (describe a)
               (sid_name rd_sid.(!hi))
               (wid_name rd_wid.(!hi))
               (describe node_att.(!hi_node))
               (sid_name rd_sid.(!lo))
               (wid_name rd_wid.(!lo))
               (describe node_att.(!lo_node)))
      end
    done
  end;

  (* ---- Pass 5: lockset race + lock-order analysis. ----------------- *)
  if profile.lockset then begin
    let lock_name uid =
      if uid >= anonymous_base then
        Printf.sprintf "tvar-lock#%d" (anon_name (uid - anonymous_base))
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
    let order_reported = Hashtbl.create 16 in
    (* The named locks held, as a sorted (uid, exclusive) list, are
       interned to a set id; set 0 is the empty set. A stream moves from
       set to set at each named acquire and release, and an acquire
       first checks the declared lock order against the locks held.
       Each set remembers the transitions taken from it, keyed
       [3 * uid + mode] (mode 0 a release, 1 a shared and 2 an
       exclusive acquire), so only the first of each sorts and hashes.
       Skipping the order check on a repeat reports nothing less: a
       pair it reports is reported once, at its first occurrence, and
       that is the first occurrence of its transition too. *)
    let set_ids : ((int * bool) list, int) Hashtbl.t = Hashtbl.create 16 in
    let sets = ref [| [] |] and n_sets = ref 1 in
    let taken : (int * int) list array ref = ref [| [] |] in
    Hashtbl.add set_ids [] 0;
    let intern l =
      match Hashtbl.find_opt set_ids l with
      | Some id -> id
      | None ->
        let id = !n_sets in
        if id = Array.length !sets then begin
          sets := Array.append !sets (Array.make id []);
          taken := Array.append !taken (Array.make id [])
        end;
        !sets.(id) <- l;
        incr n_sets;
        Hashtbl.add set_ids l id;
        id
    in
    let acquire dom set uid ~excl =
      let held = !sets.(set) in
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
                     "lock-order violation on domain %d: acquired %s while \
                      holding %s (declared order: %s first)"
                     dom (lock_name uid) (lock_name held_uid) (lock_name uid))
              end
            | _ -> ())
          held);
      (* re-entrant read->write upgrade keeps the strongest mode *)
      let excl = excl || List.assoc_opt uid held = Some true in
      intern (List.sort compare ((uid, excl) :: List.remove_assoc uid held))
    in
    let release set uid = intern (List.remove_assoc uid !sets.(set)) in
    let rec find_taken (key : int) = function
      | [] -> -1
      | (k, target) :: rest -> if k = key then target else find_taken key rest
    in
    let transition dom set uid mode =
      let key = (3 * uid) + mode in
      match find_taken key !taken.(set) with
      | -1 ->
        let target =
          if mode = 0 then release set uid
          else acquire dom set uid ~excl:(mode = 2)
        in
        !taken.(set) <- (key, target) :: !taken.(set);
        target
      | target -> target
    in
    (* Access signature = the locks that can order the access: the
       named-lock set held, plus the accessed tvar's own per-tvar lock
       while it is held (bound by the trace.mli contract), encoded as
       [2 * lock + exclusive], or -1. Another tvar's lock orders nothing
       and is left out. Per tvar we bucket accesses by signature and
       record which domains and access kinds hit each bucket; the
       pairwise check below then needs only the (few) distinct
       signatures, not the (many) accesses. A tvar's buckets are a list
       threaded through the [b_*] arrays from [bhead]. *)
    let alo = sc.anon_lo and n_anons = span sc.anon_lo sc.anon_hi in
    (* per-tvar lock: mode held (0 free, 1 shared, 2 exclusive) and the
       stream holding it; per tvar: the lock its accesses are bound to
       and the stream that bound it *)
    let anon_mode = Array.make n_anons 0 and anon_dom = Array.make n_anons (-1) in
    let guard = Array.make n_sids 0 and guard_dom = Array.make n_sids (-1) in
    let bhead = Array.make n_sids (-1) in
    let b_next = vec () and b_set = vec () and b_own = vec () in
    let b_write = vec () and b_doms = vec () in
    Array.iteri
      (fun dom stream ->
        let set = ref 0 in
        let pending = ref (-1) in
        let record ~bound sid ~write =
          let s = sidx sid in
          if bound >= 0 then begin
            guard.(s) <- bound;
            guard_dom.(s) <- dom
          end;
          let own =
            if guard_dom.(s) <> dom then -1
            else
              let k = guard.(s) in
              if anon_dom.(k) = dom && anon_mode.(k) > 0 then
                (2 * k) + anon_mode.(k) - 1
              else -1
          in
          let b = ref bhead.(s) in
          while !b >= 0 && not (b_set.a.(!b) = !set && b_own.a.(!b) = own) do
            b := b_next.a.(!b)
          done;
          if !b >= 0 then begin
            if write then b_write.a.(!b) <- 1;
            b_doms.a.(!b) <- b_doms.a.(!b) lor (1 lsl dom)
          end
          else begin
            push b_next bhead.(s);
            bhead.(s) <- b_set.n;
            push b_set !set;
            push b_own own;
            push b_write (Bool.to_int write);
            push b_doms (1 lsl dom)
          end
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
             if uid >= anonymous_base then begin
               (* re-entrant read->write upgrade keeps the strongest mode *)
               let k = uid - anonymous_base - alo in
               if anon_dom.(k) = dom && anon_mode.(k) > 0 then begin
                 if excl then anon_mode.(k) <- 2
               end
               else begin
                 anon_dom.(k) <- dom;
                 anon_mode.(k) <- (if excl then 2 else 1)
               end;
               pending := k
             end
             else set := transition dom !set uid (if excl then 2 else 1)
           end
           else if tag = Trace.tag_release then begin
             let uid = stream.(!i + 1) in
             if uid >= anonymous_base then
               anon_mode.(uid - anonymous_base - alo) <- 0
             else set := transition dom !set uid 0
           end
           else if tag = Trace.tag_read then
             record ~bound stream.(!i + 1) ~write:false
           else if tag = Trace.tag_write then
             record ~bound stream.(!i + 1) ~write:true);
          i := !i + arity.(tag)
        done)
      streams;
    (* Pairwise signature check. A pair of accesses (at least one a
       write, from two different domains) is ordered iff the two
       signatures share a lock that at least one side holds exclusively.
       Note plain lockset intersection is NOT the criterion: medium's
       structural ops hold structure:W while traversals hold
       structure:R + domain:W — disjoint write-locks, yet perfectly
       ordered by the shared structure lock. *)
    let sets = !sets in
    let protects b1 b2 =
      let o1 = b_own.a.(b1) and o2 = b_own.a.(b2) in
      (o1 >= 0 && o2 >= 0 && o1 / 2 = o2 / 2 && (o1 land 1 = 1 || o2 land 1 = 1))
      ||
      let l2 = sets.(b_set.a.(b2)) in
      List.exists
        (fun (uid, excl) ->
          match List.assoc_opt uid l2 with
          | Some excl2 -> excl || excl2
          | None -> false)
        sets.(b_set.a.(b1))
    in
    let multi_bit x = x land (x - 1) <> 0 in
    let sig_str b =
      let own = b_own.a.(b) in
      let locks =
        sets.(b_set.a.(b))
        @ if own < 0 then [] else [ (anonymous_base + alo + (own / 2), own land 1 = 1) ]
      in
      if locks = [] then "no locks"
      else
        String.concat ","
          (List.map
             (fun (uid, excl) ->
               Printf.sprintf "%s:%c" (lock_name uid) (if excl then 'W' else 'R'))
             locks)
    in
    let access b = if b_write.a.(b) = 1 then "write" else "read" in
    Array.iteri
      (fun s head ->
        let b1 = ref head in
        while !b1 >= 0 do
          let b2 = ref !b1 in
          while !b2 >= 0 do
            if
              (b_write.a.(!b1) = 1 || b_write.a.(!b2) = 1)
              && multi_bit (b_doms.a.(!b1) lor b_doms.a.(!b2))
              && not (protects !b1 !b2)
            then
              add_finding races
                (Printf.sprintf
                   "data race on tvar %d: %s access under [%s] vs %s access \
                    under [%s] share no ordering lock"
                   (sid_name (s + slo))
                   (access !b1) (sig_str !b1) (access !b2) (sig_str !b2));
            b2 := b_next.a.(!b2)
          done;
          b1 := b_next.a.(!b1)
        done)
      bhead
  end;

  {
    domains = Array.length dump.streams;
    events = sc.events;
    attempts = n_att;
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
  (* interned op id -> (name, read mask, write mask), when the table
     knows the op *)
  let n_ops = 1 + List.fold_left (fun m (id, _) -> max m id) 0 dump.Trace.ops in
  let ops = Array.make n_ops None in
  List.iter
    (fun (id, name) ->
      if id >= 0 then
        ops.(id) <- Option.map (fun (r, w) -> (name, r, w)) (table name))
    dump.Trace.ops;
  (* sid -> region, over the accessed sids numbered as in [analyze]:
     [sids.(k)] is the sid the streams access as [lo + k], and
     [region.(k)] its region, or -1. A later note of a sid wins. *)
  let sc = prescan dump.Trace.streams in
  let streams, lo, sids =
    if sparse sc sc.sid_lo sc.sid_hi then begin
      let copy, us, _, _ = renumber dump.Trace.streams sc in
      (copy, 0, us)
    end
    else
      ( dump.Trace.streams,
        sc.sid_lo,
        Array.init (span sc.sid_lo sc.sid_hi) (fun k -> sc.sid_lo + k) )
  in
  let region = Array.make (Array.length sids) (-1) in
  Array.iter
    (fun (sid, r) ->
      let k = rank sids sid in
      if r >= 0 && k < Array.length sids && sids.(k) = sid then region.(k) <- r)
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
        (if tag = Trace.tag_begin then begin
           let op = stream.(!i + 3) in
           cur := if op >= 0 && op < n_ops then ops.(op) else None
         end
         else if tag = Trace.tag_read || tag = Trace.tag_write then begin
           let write = tag = Trace.tag_write in
           match !cur with
           | None -> incr unknown_op
           | Some (op, rmask, wmask) ->
             let k = stream.(!i + 1) - lo in
             let region = region.(k) in
             if region < 0 then incr unknown_region
             else begin
               incr checked;
               let mask = if write then wmask else rmask in
               if mask land (1 lsl region) = 0 then
                 escape ~op ~region ~write ~sid:sids.(k)
             end
         end);
        i := !i + arity.(tag)
      done)
    streams;
  {
    checked = !checked;
    unknown_region = !unknown_region;
    unknown_op = !unknown_op;
    read_escapes = close_findings read_escapes;
    write_escapes = close_findings write_escapes;
  }
