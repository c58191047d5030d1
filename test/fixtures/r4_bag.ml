(* R4 fixture: a generic writer, like lib/core/bag.ml — [add] writes
   whichever tvar its caller passes. Reached from the registry only
   through the two-level alias in r4_chain.ml. *)

module Make (R : R4_helpers.R_sig) = struct
  let add bag x = R.write bag (x :: R.read bag)
end
