(* R4 fixture: the middle link of a two-level module alias, like
   lib/core/setup.ml's [module B = Bag.Make (R)]. *)

module Make (R : R4_helpers.R_sig) = struct
  module B = R4_bag.Make (R)

  let bag : int list R4_helpers.tvar = R.make []
end
