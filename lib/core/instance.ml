(** One functor application tying the whole benchmark core to a
    synchronization runtime. *)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  module Runtime = R
  module Types = Types.Make (R)
  module Id_pool = Id_pool.Make (R)
  module Bag = Bag.Make (R)
  module Index = Index.Make (R)
  module Avl_index = Avl_index.Make (R)
  module Flat_index = Flat_index.Make (R)
  module Btree_index = Btree_index.Make (R)
  module Setup = Setup.Make (R)
  module Nav = Nav.Make (R)
  module Traversals = Traversals.Make (R)
  module Short_traversals = Short_traversals.Make (R)
  module Short_ops = Short_ops.Make (R)
  module Structure_mods = Structure_mods.Make (R)
  module Operation = Operation.Make (R)
  module Invariants = Invariants.Make (R)
  module Structure_stats = Structure_stats.Make (R)
end
