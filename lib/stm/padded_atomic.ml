(* See the .mli for the contention rationale. The padding technique is
   the one popularized by multicore-magic: copy a freshly allocated
   block into a new block of the same tag with trailing padding words,
   so the hot word no longer shares its cache line(s) with whatever the
   minor allocator placed right after it. [Obj.new_block] initializes
   every field to [()], a valid immediate, so the GC never scans
   garbage; the padding fields are simply never read.

   This is the second sanctioned use of [Obj] in the repository (the
   first is the typed-log coercion in Mvstm.cast_ref; see
   DESIGN.md §3). OCaml 5.2's [Atomic.make_contended] subsumes the
   atomic half of this module, but the CI matrix includes 5.1. *)

(* Pad to 4 x 64-byte lines: one line for the word itself plus enough
   slack that adjacent-line prefetchers do not pull a neighbour's line
   into the owning core. *)
let padding_words = 31

let copy_as_padded : type a. a -> a =
 fun v ->
  let o = Obj.repr v in
  (* Only plain boxed blocks (records, Atomic.t) make sense here; an
     immediate or a custom block is returned unchanged. *)
  if (not (Obj.is_block o)) || Obj.tag o <> 0 then v
  else begin
    let n = Obj.size o in
    let p = Obj.new_block 0 (n + padding_words) in
    for i = 0 to n - 1 do
      Obj.set_field p i (Obj.field o i)
    done;
    Obj.obj p
  end

type t = int Atomic.t

(* Atomic primitives operate on field 0 of the block, so they are
   oblivious to the padding fields behind it. *)
let make n : t = copy_as_padded (Atomic.make n)
let get (t : t) = Atomic.get t
let set (t : t) v = Atomic.set t v
let fetch_and_add (t : t) d = Atomic.fetch_and_add t d
let compare_and_set (t : t) seen v = Atomic.compare_and_set t seen v
