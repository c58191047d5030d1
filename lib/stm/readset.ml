(* The versioned read set shared by TL2, LSA update mode and ETL.

   The log is three parallel arrays (structure-of-arrays) rather than
   an array of {id; vlock; version} records: a push writes three slots
   and allocates nothing, and the GC marks three flat arrays per log
   instead of one record per logged read. [ids] and [versions] are
   unboxed int arrays; [vlocks] holds the tvars' existing atomic cells
   (shared pointers, never allocated per entry). Unused vlock slots
   hold [dummy_vlock].

   Read-set dedup: a direct-mapped cache over tvar ids, epoch-tagged so
   reset is O(1). A slot holds the id it last admitted; collisions
   evict, which only costs a duplicate entry later, never correctness.
   Kept at 2x the read-array capacity. *)

type t = {
  mutable ids : int array;
  mutable versions : int array;
  mutable vlocks : int Atomic.t array;
  mutable n : int;
  mutable dedup_ids : int array;
  mutable dedup_epochs : int array;
  mutable epoch : int;
  (* Per-attempt tallies, flushed into [Stm_stats] by the engine. *)
  mutable validation_steps : int;
  mutable dedup_hits : int;
}

let dummy_vlock : int Atomic.t = Atomic.make 0
let initial = 64

let create () =
  {
    ids = Array.make initial (-1);
    versions = Array.make initial 0;
    vlocks = Array.make initial dummy_vlock;
    n = 0;
    dedup_ids = Array.make (2 * initial) (-1);
    dedup_epochs = Array.make (2 * initial) 0;
    epoch = 0;
    validation_steps = 0;
    dedup_hits = 0;
  }

let length rs = rs.n

(* Probe-and-claim in the dedup cache: [true] means [id] is already in
   the read set (skip the duplicate push; counted as a dedup hit).
   Sequential ids index directly, so a traversal narrower than the
   cache never collides.

   A dedup hit is sound: a logged tvar cannot have changed while the
   transaction is still viable — a change either shows up as a version
   newer than [rv] (the extension then revalidates the logged entry and
   conflicts) or is caught by the same entry at commit. Skipping the
   duplicate push therefore preserves the exact conflict set. *)
let seen rs id =
  let slot = id land (Array.length rs.dedup_ids - 1) in
  if rs.dedup_epochs.(slot) = rs.epoch && rs.dedup_ids.(slot) = id then begin
    rs.dedup_hits <- rs.dedup_hits + 1;
    true
  end
  else begin
    rs.dedup_ids.(slot) <- id;
    rs.dedup_epochs.(slot) <- rs.epoch;
    false
  end

let push rs id vlock version =
  let n = rs.n in
  if n = Array.length rs.ids then begin
    let cap = 2 * n in
    let ids = Array.make cap (-1) in
    let versions = Array.make cap 0 in
    let vlocks = Array.make cap dummy_vlock in
    Array.blit rs.ids 0 ids 0 n;
    Array.blit rs.versions 0 versions 0 n;
    Array.blit rs.vlocks 0 vlocks 0 n;
    rs.ids <- ids;
    rs.versions <- versions;
    rs.vlocks <- vlocks;
    (* Grow the dedup cache with the read set and re-mark the logged
       ids, so dedup stays effective on long traversals. *)
    let size = 2 * Array.length rs.dedup_ids in
    let dids = Array.make size (-1) and epochs = Array.make size rs.epoch in
    for i = 0 to n - 1 do
      let logged = ids.(i) in
      dids.(logged land (size - 1)) <- logged
    done;
    (* The incoming entry claimed its slot in the old cache; re-claim in
       the new one so its next re-read still dedups. *)
    dids.(id land (size - 1)) <- id;
    rs.dedup_ids <- dids;
    rs.dedup_epochs <- epochs
  end;
  rs.ids.(n) <- id;
  rs.versions.(n) <- version;
  rs.vlocks.(n) <- vlock;
  rs.n <- n + 1

(* Whether entry [i] is still at its logged version. With [own_locks],
   an entry whose vlock reads [version + 1] is intact if the
   transaction holds that lock itself (it is in [writes]): the lock was
   taken at exactly the logged version — a foreign commit in between
   would have bumped the version past it. *)
let[@inline] intact rs ~own_locks writes i =
  let cur = Atomic.get rs.vlocks.(i) in
  let version = rs.versions.(i) in
  cur = version
  || (own_locks && cur = version + 1 && Hashtbl.mem writes rs.ids.(i))

(* Full validation: every entry still at its logged version. *)
let valid rs ~own_locks writes =
  let i = ref 0 in
  while !i < rs.n && intact rs ~own_locks writes !i do
    incr i
  done;
  let ok = !i = rs.n in
  rs.validation_steps <- rs.validation_steps + if ok then !i else !i + 1;
  ok

(* Prefix validation for partial abort: the position of the first
   invalid entry ([length rs] when all are intact); everything before
   it is intact. *)
let valid_prefix rs ~own_locks writes =
  let p = ref 0 in
  while !p < rs.n && intact rs ~own_locks writes !p do
    incr p
  done;
  rs.validation_steps <- rs.validation_steps + !p + 1;
  !p

(* Keep the first [n] entries: invalidate the dedup cache, then
   re-claim the retained prefix so its re-reads still dedup; truncated
   ids will re-log. *)
let truncate rs n =
  rs.n <- n;
  rs.epoch <- rs.epoch + 1;
  let mask = Array.length rs.dedup_ids - 1 in
  for i = 0 to n - 1 do
    let id = rs.ids.(i) in
    rs.dedup_ids.(id land mask) <- id;
    rs.dedup_epochs.(id land mask) <- rs.epoch
  done

let reset rs =
  rs.n <- 0;
  rs.epoch <- rs.epoch + 1 (* invalidates the whole dedup cache in O(1) *);
  rs.validation_steps <- 0;
  rs.dedup_hits <- 0;
  (* Shrink a read set that ballooned in a previous long transaction so
     per-op memory stays bounded; the dedup cache shrinks with it. *)
  if Array.length rs.ids > 1 lsl 16 then begin
    rs.ids <- Array.make initial (-1);
    rs.versions <- Array.make initial 0;
    rs.vlocks <- Array.make initial dummy_vlock;
    rs.dedup_ids <- Array.make (2 * initial) (-1);
    rs.dedup_epochs <- Array.make (2 * initial) 0
  end

(* Drop every vlock pointer so a pooled descriptor pins no atomic cell
   from its previous life. Once per domain lifetime, so the
   capacity-wide fill is fine. *)
let scrub rs =
  Array.fill rs.vlocks 0 (Array.length rs.vlocks) dummy_vlock;
  rs.n <- 0
