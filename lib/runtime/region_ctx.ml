(* See region_ctx.mli. The context is one int ref per domain: tvar
   creation is orders of magnitude rarer than tvar access, so a DLS
   lookup per [with_region] / per [R.make] is irrelevant, and
   domain-locality means structure-modification operations tagging
   their freshly created objects on worker domains never interfere. *)

let unknown = -1

let key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref unknown)

let current_code () = !(Domain.DLS.get key)

let with_region region f =
  let cell = Domain.DLS.get key in
  let saved = !cell in
  cell := Region.to_int region;
  Fun.protect ~finally:(fun () -> cell := saved) f
