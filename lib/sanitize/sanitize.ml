(** [Sanitize.Make (R)] — a drop-in instrumented runtime.

    A wrapped tvar is an inner tvar holding one immutable cell
    [{ v; wid; sid }]: the value, the write id identifying the exact
    version a read observed, and the stable trace id of the tvar
    itself. Because the cell is a single immutable OCaml block, even a
    racy runtime can never deliver a torn (value of one version, id of
    another) observation — and because the tvar holds the cell
    directly, a disabled-tracing read costs exactly one extra
    dependent load over the bare runtime (the cell block) plus a
    boolean check. Version 0 means "written while tracing was off"
    (initial values included), so warmup and setup writes need no
    events.

    The bechamel pair [tl2-ro-read-64-bare] /
    [tl2-ro-read-64-sanitize-off] keeps the "cheap when off" claim
    honest (see docs/SANITIZER.md).

    Sanitize-mode semantics differ from the bare runtime in one
    deliberate way: [write] first performs an inner [R.read] to carry
    the stable [sid] forward and capture the overwritten version
    ([prev]), which under TL2/LSA/ASTM adds written-only tvars to the
    read set (slightly stricter conflict detection) and under the fine
    runtime takes the read lock before upgrading. Both are
    conservative: they can only turn a success into a retry, never
    mask a bug. The [prev] links give the checker the exact per-tvar
    version order without assuming anything about the runtime's
    internals. *)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  let name = R.name

  type 'a cell = { v : 'a; wid : int; sid : int }
  type 'a tvar = 'a cell R.tvar

  (* Trace tvar ids: unique across domains (chunked allocator),
     independent of the wrapped runtime's own ids. *)
  let sids = Sb7_stm.Tvar_id.create ()

  let make v =
    let wid = if !Trace.on then Trace.next_wid () else 0 in
    let sid = Sb7_stm.Tvar_id.fresh sids in
    (* Region notes feed the footprint replay; recorded
       unconditionally (setup runs with tracing off but its tvars live
       through every traced phase). *)
    Trace.note_region ~sid ~region:(Sb7_runtime.Region_ctx.current_code ());
    R.make { v; wid; sid }

  (* Per-domain bookkeeping for partial-abort events: how many read
     and write events the current attempt has emitted, and those two
     counts as they stood at each checkpoint. When the wrapped runtime
     resumes from checkpoint [n], the trace must state exactly which
     event prefix survived — [cp_reads.(n-1)] / [cp_writes.(n-1)]. *)
  type cp_state = {
    mutable reads : int;
    mutable writes : int;
    mutable cp_reads : int array;
    mutable cp_writes : int array;
    mutable ncp : int;
  }

  let cp_key : cp_state Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        {
          reads = 0;
          writes = 0;
          cp_reads = Array.make 16 0;
          cp_writes = Array.make 16 0;
          ncp = 0;
        })

  let read tv =
    let c = R.read tv in
    if !Trace.on then begin
      Trace.on_read ~sid:c.sid ~wid:c.wid;
      let cp = Domain.DLS.get cp_key in
      cp.reads <- cp.reads + 1
    end;
    c.v

  let write tv v =
    let c = R.read tv in
    if !Trace.on then begin
      let wid = Trace.next_wid () in
      R.write tv { v; wid; sid = c.sid };
      Trace.on_write ~sid:c.sid ~wid ~prev:c.wid;
      let cp = Domain.DLS.get cp_key in
      cp.writes <- cp.writes + 1
    end
    else R.write tv { v; wid = 0; sid = c.sid }

  let partial_abort = R.partial_abort

  (* Mirror the runtime's mark stack: the wrapper records the emitted
     event counts at every checkpoint so a later resume can be traced
     as an exact event-prefix truncation. Misalignment is impossible
     where it matters: whenever the inner runtime dropped the mark (no
     transaction, read-only mode, capability off), its [resume] reports
     a fresh attempt and these recordings are never consulted. *)
  let checkpoint ~acc =
    if !Trace.on then begin
      let cp = Domain.DLS.get cp_key in
      let n = cp.ncp in
      if n = Array.length cp.cp_reads then begin
        let grow a = Array.append a (Array.make n 0) in
        cp.cp_reads <- grow cp.cp_reads;
        cp.cp_writes <- grow cp.cp_writes
      end;
      cp.cp_reads.(n) <- cp.reads;
      cp.cp_writes.(n) <- cp.writes;
      cp.ncp <- n + 1
    end;
    R.checkpoint ~acc

  let resume = R.resume

  (* Nesting depth: operations occasionally run an inner [R.atomic]
     that the runtimes flatten into the enclosing transaction; only the
     outermost wrapper emits attempt boundaries, or a flattened inner
     call would masquerade as an aborted attempt. *)
  let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

  let atomic ~profile f =
    if not !Trace.on then R.atomic ~profile f
    else begin
      let depth = Domain.DLS.get depth_key in
      if !depth > 0 then R.atomic ~profile f
      else begin
        let ro = Sb7_runtime.Op_profile.read_only profile in
        let structural = profile.Sb7_runtime.Op_profile.structural in
        let op = Trace.intern_op profile.Sb7_runtime.Op_profile.op_name in
        incr depth;
        (* The runtime re-runs the closure on every internal retry
           (conflict, lock restart, read-only demotion), so each
           attempt gets its own begin event — except a partial-abort
           resume, where the SAME attempt continues from a salvaged
           event prefix and is traced as such. *)
        match
          R.atomic ~profile (fun () ->
              let cp = Domain.DLS.get cp_key in
              let salvaged, _acc = R.resume () in
              if salvaged > 0 then begin
                let reads_kept = cp.cp_reads.(salvaged - 1) in
                let writes_kept = cp.cp_writes.(salvaged - 1) in
                Trace.on_partial ~reads_kept ~writes_kept;
                cp.reads <- reads_kept;
                cp.writes <- writes_kept;
                cp.ncp <- salvaged
              end
              else begin
                Trace.on_begin ~ro ~structural ~op;
                cp.reads <- 0;
                cp.writes <- 0;
                cp.ncp <- 0
              end;
              f ())
        with
        | result ->
          decr depth;
          Trace.on_commit ();
          result
        | exception exn ->
          decr depth;
          Trace.on_rollback ();
          raise exn
      end
    end

  let stats = R.stats
  let reset_stats = R.reset_stats
end
