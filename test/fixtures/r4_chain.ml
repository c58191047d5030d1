(* R4 fixture: a write through a two-level module alias. [S.B.add]
   resolves through [module S = R4_setup.Make (R)] here and
   [module B = R4_bag.Make (R)] in r4_setup.ml to R4_bag.add — the
   path lib/core's SM3 and SM4 take to Bag.add. *)

module Make (R : R4_helpers.R_sig) = struct
  module S = R4_setup.Make (R)

  let chain_liar () =
    S.B.add S.bag 1;
    List.length (R.read S.bag)
end
