(* R4 fixture registry: registers the r4_helpers operations through
   profiled builders mirroring lib/core/operation.ml. "RO2" and "RO3"
   declare read-only (no ~writes) and "RO4" through an empty ~writes
   list, but their run functions write — the three expected
   profile-honesty findings. *)

type op = {
  code : string;
  writes : string list option;
  structural : bool;
  run : unit -> int;
}

module Make (R : R4_helpers.R_sig) = struct
  module H = R4_helpers.Make (R)

  let op code ?reads ?writes run =
    ignore reads;
    { code; writes; structural = false; run }

  let structure code run = { code; writes = None; structural = true; run }

  let all =
    [
      op "RO1" ~reads:[ "cell" ] H.honest_reader;
      op "RO2" H.liar;
      op "RO3" H.index_liar;
      op "RO4" ~writes:[] H.liar;
      op "UP1" ~writes:[ "cell" ] H.writer;
      structure "SM1" H.structural_write;
    ]
end
