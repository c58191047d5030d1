(* R4 fixture registry: registers the r4_helpers and r4_chain
   operations through profiled builders mirroring
   lib/core/operation.ml. "RO2", "RO3" and "RO5" declare read-only (no
   ~writes) and "RO4" through an empty ~writes list, but their run
   functions write; "UP2" declares writes but its run function only
   reads — the five expected profile-honesty findings. RO3 carries a
   waiver that must not take. *)

type op = {
  code : string;
  writes : string list option;
  structural : bool;
  run : unit -> int;
}

module Make (R : R4_helpers.R_sig) = struct
  module H = R4_helpers.Make (R)
  module C = R4_chain.Make (R)

  let op code ?reads ?writes run =
    ignore reads;
    { code; writes; structural = false; run }

  let structure code run = { code; writes = None; structural = true; run }

  let all =
    [
      op "RO1" ~reads:[ "cell" ] H.honest_reader;
      op "RO2" H.liar;
      (* sb7-lint: allow profile-honesty -- fixture: no waiver takes *)
      op "RO3" H.index_liar;
      op "RO4" ~writes:[] H.liar;
      op "RO5" C.chain_liar;
      op "UP1" ~writes:[ "cell" ] H.writer;
      op "UP2" ~writes:[ "cell" ] H.honest_reader;
      structure "SM1" H.structural_write;
    ]
end
