(* Benchmark-side instrumentation. [Make (R)] is a drop-in runtime,
   shaped like [Sb7_sanitize.Sanitize.Make], that times every outermost
   [atomic] and, while [tracing] is on, records spans around [atomic]
   and around each run of the closure passed to it, and counts
   [read]/[write] calls per operation category. Everything it sees
   crosses the [Runtime_intf.S] boundary; the program is not edited.

   Each worker domain records into its own buffers (no locks on the hot
   path). The main domain harvests them after [Benchmark.run] returns,
   when every worker has been joined. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable int buffer. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* --- Spans ----------------------------------------------------------- *)

let span_setup = 0
let span_run = 1
let span_atomic = 2
let span_attempt = 3
let span_check = 4

let span_names =
  [| "core.setup"; "harness.run"; "runtime.atomic"; "core.attempt";
     "sanitize.check" |]

(* A span is five ints in its recorder's [spans] buffer: name, start,
   end (-1 while open), parent id (-1 for a root) and operation id (-1
   outside operations). Its id is [slot lsl 32 lor index], where [slot]
   names the recorder (one per domain that recorded) and [index] is the
   span's position in that recorder. *)
let span_width = 5

(* Operation categories, indexed as in [Sb7_core.Category.all]. *)
let categories = Array.of_list Sb7_core.Category.all
let category_keys = [| "lt"; "st"; "op"; "sm" |]
let n_categories = Array.length categories

let category_index c =
  let rec go i =
    if Sb7_core.Category.equal categories.(i) c then i else go (i + 1)
  in
  go 0

type recorder = {
  slot : int;
  latencies : Buf.t;  (** ns per outermost [atomic], every mode *)
  spans : Buf.t;
  reads : int array;  (** per category, traced outermost atomics only *)
  writes : int array;
  mutable depth : int;
  mutable category : int;
}

let next_slot = Atomic.make 0

let fresh_recorder () =
  {
    slot = Atomic.fetch_and_add next_slot 1;
    latencies = Buf.create ();
    spans = Buf.create ();
    reads = Array.make n_categories 0;
    writes = Array.make n_categories 0;
    depth = 0;
    category = 0;
  }

(* The main domain's spans (set-up, runs, checks). *)
let main = fresh_recorder ()

(* Every worker recorder created since the last [harvest]. Benchmark.run
   spawns fresh domains for every call, so each run's workers register
   anew and a harvest sees exactly that run. *)
let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let r = fresh_recorder () in
      Mutex.protect registry_lock (fun () -> registry := r :: !registry);
      r)

(* Flip only while no worker domain runs: plain refs, published to the
   workers by the spawn happens-before edge. *)
let tracing = ref false
let sticky = ref false

(* The harness.run span the workers' atomics hang under. *)
let run_parent = ref (-1)

(* Operation name -> id, and id -> category; filled before any run. *)
let op_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let op_names = ref [||]
let op_categories = ref [||]

let register_ops (ops : (string * Sb7_core.Category.t) list) =
  Hashtbl.reset op_ids;
  List.iteri (fun i (name, _) -> Hashtbl.replace op_ids name i) ops;
  op_names := Array.of_list (List.map fst ops);
  op_categories :=
    Array.of_list (List.map (fun (_, c) -> category_index c) ops)

let span_id r i = (r.slot lsl 32) lor i

let open_span r ~name ~parent ~op =
  let i = r.spans.Buf.n / span_width in
  Buf.push r.spans name;
  Buf.push r.spans (now_ns ());
  Buf.push r.spans (-1);
  Buf.push r.spans parent;
  Buf.push r.spans op;
  i

let close_span r i = r.spans.Buf.a.((i * span_width) + 2) <- now_ns ()

(* A main-domain span around [f], closed on exception too. *)
let with_span ~name f =
  let i = open_span main ~name ~parent:(-1) ~op:(-1) in
  Fun.protect ~finally:(fun () -> close_span main i) (fun () ->
      f (span_id main i))

(* Reads and writes the calling domain has counted while tracing. *)
let accesses () =
  let r = Domain.DLS.get key in
  Array.fold_left ( + ) 0 r.reads + Array.fold_left ( + ) 0 r.writes

(* --- Harvest ----------------------------------------------------------- *)

type harvest = {
  latencies_ns : int array;
  worker_spans : (int * int array) list;  (** (slot, raw span ints) *)
  reads_by_cat : int array;
  writes_by_cat : int array;
}

let harvest () =
  let rs = Mutex.protect registry_lock (fun () ->
      let rs = !registry in
      registry := [];
      rs)
  in
  let reads = Array.make n_categories 0
  and writes = Array.make n_categories 0 in
  List.iter
    (fun r ->
      Array.iteri (fun c n -> reads.(c) <- reads.(c) + n) r.reads;
      Array.iteri (fun c n -> writes.(c) <- writes.(c) + n) r.writes)
    rs;
  {
    latencies_ns = Array.concat (List.map (fun r -> Buf.to_array r.latencies) rs);
    worker_spans =
      List.filter_map
        (fun r ->
          if r.spans.Buf.n = 0 then None
          else Some (r.slot, Buf.to_array r.spans))
        rs;
    reads_by_cat = reads;
    writes_by_cat = writes;
  }

(* --- The wrapper -------------------------------------------------------- *)

module Make (R : Sb7_runtime.Runtime_intf.S) :
  Sb7_runtime.Runtime_intf.S with type 'a tvar = 'a R.tvar = struct
  let name = R.name

  type 'a tvar = 'a R.tvar

  let make = R.make

  let read tv =
    if !tracing then begin
      let r = Domain.DLS.get key in
      if r.depth > 0 then r.reads.(r.category) <- r.reads.(r.category) + 1
    end;
    R.read tv

  let write tv v =
    if !tracing then begin
      let r = Domain.DLS.get key in
      if r.depth > 0 then r.writes.(r.category) <- r.writes.(r.category) + 1
    end;
    R.write tv v

  let partial_abort = R.partial_abort
  let checkpoint = R.checkpoint
  let resume = R.resume

  let finish r t0 =
    r.depth <- 0;
    Buf.push r.latencies (now_ns () - t0)

  let traced_atomic r ~profile f =
    let op =
      match Hashtbl.find_opt op_ids profile.Sb7_runtime.Op_profile.op_name with
      | Some i -> i
      | None -> -1
    in
    r.category <- (if op >= 0 then !op_categories.(op) else 0);
    let t0 = now_ns () in
    let sp = open_span r ~name:span_atomic ~parent:!run_parent ~op in
    let parent = span_id r sp in
    let attempt () =
      let a = open_span r ~name:span_attempt ~parent ~op in
      match f () with
      | v ->
        close_span r a;
        v
      | exception e ->
        close_span r a;
        raise e
    in
    match R.atomic ~profile attempt with
    | v ->
      close_span r sp;
      finish r t0;
      v
    | exception e ->
      close_span r sp;
      finish r t0;
      raise e

  (* Operations occasionally nest an [atomic] that the runtimes flatten
     into the enclosing one; only the outermost call is an operation. *)
  let atomic ~profile f =
    let r = Domain.DLS.get key in
    if r.depth > 0 then R.atomic ~profile f
    else begin
      r.depth <- 1;
      if !tracing then traced_atomic r ~profile f
      else begin
        let t0 = now_ns () in
        match R.atomic ~profile f with
        | v ->
          finish r t0;
          v
        | exception e ->
          finish r t0;
          raise e
      end
    end

  let stats = R.stats

  (* While [sticky] is set, [Benchmark.run]'s own reset is skipped, so
     the runtime carries its state (the tournament's champion, its
     counters) from one run to the next; callers take counter deltas. *)
  let reset_stats () = if not !sticky then R.reset_stats ()
end
