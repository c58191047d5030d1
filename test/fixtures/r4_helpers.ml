(* R4 fixture: a miniature sync-free core. Operations live inside a
   functor over a runtime signature, exactly like lib/core; some only
   read, some write directly, some write transitively, one mutates a
   first-class index record. The registry fixture (r4_registry.ml)
   registers them with honest and lying profiles. *)

type 'a tvar = { mutable v : 'a }

module type R_sig = sig
  val make : 'a -> 'a tvar
  val read : 'a tvar -> 'a
  val write : 'a tvar -> 'a -> unit
end

(* First-class index, like Index_intf.t: [put] is a mutator field. *)
type ('k, 'v) index = {
  get : 'k -> 'v option;
  put : 'k -> 'v -> unit;
}

module Make (R : R_sig) = struct
  let cell = R.make 0
  let idx : (int, int) index = { get = (fun _ -> None); put = (fun _ _ -> ()) }

  (* Genuinely read-only. *)
  let honest_reader () = R.read cell

  (* A writer two calls deep: liar -> deep_write -> R.write. *)
  let deep_write v = R.write cell v
  let liar () =
    deep_write 1;
    R.read cell

  (* Mutates the index record — also a write, through a field. *)
  let index_liar () =
    idx.put 1 2;
    R.read cell

  (* Honestly-declared writers. [writer] writes through a member of a
     local structure module: the resolver must map [Local.store] back
     to this unit, or UP1 would look like a writer that reaches no
     write. *)
  module Local = struct
    let store v = R.write cell v
  end

  let writer () =
    Local.store 42;
    R.read cell

  let structural_write () =
    deep_write 7;
    R.read cell
end
