(* See trace.mli. The buffers are plain int arrays with a domain-local
   cursor: appending is a few stores, growing doubles the array
   (amortized O(1), and int arrays are not scanned by the GC). *)

let tag_begin = 0
let tag_read = 1
let tag_write = 2
let tag_commit = 3
let tag_rollback = 4
let tag_acquire = 5
let tag_release = 6
let tag_partial = 7

let flag_ro = 1
let flag_structural = 2

type dump = {
  streams : int array array;
  locks : (int * string) list;
  ops : (int * string) list;
  regions : (int * int) array;
}

type buf = {
  mutable data : int array;
  mutable len : int;
}

(* The per-domain buffers of one kind. A domain's buffer joins [live]
   on first use (under a mutex) and moves to [retired] when the domain
   exits: the next dump still reads it, the next reset of its kind
   drops it, so respawned workers do not each pin a grown buffer. *)
type pool = { mutable live : buf list; mutable retired : buf list }

let registry_mutex = Mutex.create ()

let register pool size () =
  let b = { data = Array.make size 0; len = 0 } in
  Mutex.protect registry_mutex (fun () -> pool.live <- b :: pool.live);
  Domain.at_exit (fun () ->
      Mutex.protect registry_mutex (fun () ->
          pool.live <- List.filter (fun b' -> b' != b) pool.live;
          pool.retired <- b :: pool.retired));
  b

let events = { live = []; retired = [] }
let event_buf_size = 1 lsl 14
let buf_key = Domain.DLS.new_key (register events event_buf_size)

(* Region notes — (sid, region) pairs recorded at tvar creation — live
   in their own per-domain buffers, separate from the event streams:
   they are recorded even while tracing is off (the footprint replay
   needs the region of every tvar, setup-created ones included) and
   they survive {!reset} (resetting between warmup and measurement must
   not orphan the structure's tvars). *)
let notes = { live = []; retired = [] }
let note_key = Domain.DLS.new_key (register notes (1 lsl 12))

(* Operation-name interning for begin events: a handful of distinct
   names, interned once per outer [atomic] call — a mutex here is off
   the per-event hot path. Id 0 is reserved for "unknown". *)
let ops_mutex = Mutex.create ()
let ops_table : (string, int) Hashtbl.t = Hashtbl.create 64
let ops_rev : (int * string) list ref = ref []
let ops_next = ref 1

let intern_op name =
  Mutex.lock ops_mutex;
  let id =
    match Hashtbl.find_opt ops_table name with
    | Some id -> id
    | None ->
      let id = !ops_next in
      incr ops_next;
      Hashtbl.add ops_table name id;
      ops_rev := (id, name) :: !ops_rev;
      id
  in
  Mutex.unlock ops_mutex;
  id

let reserve b n =
  let cap = Array.length b.data in
  if b.len + n > cap then begin
    let bigger = Array.make (2 * max cap (b.len + n)) 0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end

(* Plain flag, toggled only while quiesced (see .mli). *)
let on = ref false
let enabled () = !on

(* Global logical counters. Only touched while tracing, so the
   contention is confined to sanitized runs. *)
let wid_counter = Atomic.make 0
let ts_counter = Atomic.make 0

let next_wid () = 1 + Atomic.fetch_and_add wid_counter 1
let next_ts () = 1 + Atomic.fetch_and_add ts_counter 1

let append1 t =
  let b = Domain.DLS.get buf_key in
  reserve b 1;
  b.data.(b.len) <- t;
  b.len <- b.len + 1

let append3 t a1 a2 =
  let b = Domain.DLS.get buf_key in
  reserve b 3;
  let n = b.len in
  b.data.(n) <- t;
  b.data.(n + 1) <- a1;
  b.data.(n + 2) <- a2;
  b.len <- n + 3

let append4 t a1 a2 a3 =
  let b = Domain.DLS.get buf_key in
  reserve b 4;
  let n = b.len in
  b.data.(n) <- t;
  b.data.(n + 1) <- a1;
  b.data.(n + 2) <- a2;
  b.data.(n + 3) <- a3;
  b.len <- n + 4

let note_region ~sid ~region =
  let b = Domain.DLS.get note_key in
  reserve b 2;
  let n = b.len in
  b.data.(n) <- sid;
  b.data.(n + 1) <- region;
  b.len <- n + 2

let on_begin ~ro ~structural ~op =
  let flags =
    (if ro then flag_ro else 0) lor if structural then flag_structural else 0
  in
  append4 tag_begin flags (next_ts ()) op

let on_read ~sid ~wid = append3 tag_read sid wid
let on_write ~sid ~wid ~prev = append4 tag_write sid wid prev
let on_commit () = append3 tag_commit (next_ts ()) 0
let on_rollback () = append1 tag_rollback

(* A partial abort: the attempt rolled back to a checkpoint, keeping
   its first [reads_kept] read events and [writes_kept] write events;
   everything it logged after them was discarded and the attempt
   continues in place (no begin event follows). *)
let on_partial ~reads_kept ~writes_kept =
  append3 tag_partial reads_kept writes_kept

(* Commit records 3 ints with a trailing 0 so every tag has a fixed
   arity; the checker skips by arity. *)

let hooks_installed = ref false

let install_hooks () =
  if not !hooks_installed then begin
    hooks_installed := true;
    Sb7_rwlock.Lock_hooks.set_hooks
      ~acquire:(fun ~id ~exclusive ->
        append3 tag_acquire id (if exclusive then 1 else 0))
      ~release:(fun ~id ~exclusive ->
        append3 tag_release id (if exclusive then 1 else 0))
  end

let enable () =
  install_hooks ();
  on := true;
  Sb7_rwlock.Lock_hooks.enable ()

let disable () =
  on := false;
  Sb7_rwlock.Lock_hooks.disable ()

(* Quiesced only: every exited domain has run its exit hook. *)
let reset_pool pool =
  pool.retired <- [];
  List.iter (fun b -> b.len <- 0) pool.live

(* Event buffers only: region notes describe the still-live structure
   and must survive into the next measurement phase's dump. A dump may
   hold a live event buffer's array, so each restarts on a fresh one. *)
let reset () =
  reset_pool events;
  List.iter (fun b -> b.data <- Array.make event_buf_size 0) events.live

(* Sid allocators restart per Sanitize.Make instance, so notes from a
   previous run's (now dead) structure would collide with the next
   run's sids; the harness clears them before building a structure. *)
let reset_notes () = reset_pool notes

(* Trim a buffer's array to its length, so the dump and the buffer
   share the trace's one copy. The trimmed array is full, so the next
   append grows into a fresh one and never writes into a dumped stream;
   a second dump before {!reset} finds nothing to trim and returns the
   same arrays. *)
let trim b =
  if Array.length b.data > b.len then b.data <- Array.sub b.data 0 b.len

let dump () =
  let bufs = List.filter (fun b -> b.len > 0) (events.live @ events.retired) in
  if List.exists (fun b -> Array.length b.data > b.len) bufs then begin
    (* Trimming copies the trace once more: collect the buffers' growth
       garbage first and the arrays trimming replaced after, so the
       caller's analysis allocates in their place. *)
    Gc.full_major ();
    List.iter trim bufs;
    Gc.full_major ()
  end;
  let streams = Array.of_list (List.map (fun b -> b.data) bufs) in
  let regions =
    notes.live @ notes.retired
    |> List.map (fun b ->
           Array.init (b.len / 2) (fun j ->
               (b.data.(2 * j), b.data.((2 * j) + 1))))
    |> Array.concat
  in
  let ops =
    Mutex.lock ops_mutex;
    let l = List.rev !ops_rev in
    Mutex.unlock ops_mutex;
    l
  in
  { streams; locks = Sb7_rwlock.Lock_hooks.registered_locks (); ops; regions }

let save path d =
  let oc = open_out_bin path in
  Marshal.to_channel oc d [];
  close_out oc

let load path =
  let ic = open_in_bin path in
  let d : dump = Marshal.from_channel ic in
  close_in ic;
  d
