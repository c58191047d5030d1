(** Adaptive tournament meta-runtime: dispatches every transaction to
    a champion STM substrate (TL2 / LSA / NOrec / ETL) and re-decides
    the champion each epoch from live {!Sb7_stm.Stm_stats} signals,
    with hysteresis and an epoch-fenced (quiesce + crown) switch; each
    tvar converts to the new champion's representation on its first
    access. See the implementation header for the design. *)

(** The decision rules, pure and separately testable. *)
module Policy : sig
  type signals = {
    abort_rate : float;  (** aborts / (commits + aborts) *)
    ro_rate : float;  (** read-only commits / commits *)
    mean_read_set : float;  (** read-set entries per update commit *)
    salvage_rate : float;
        (** partial aborts / (partial aborts + full aborts) *)
  }

  val substrate_count : int

  (** Substrate indices into scores/occupancy. *)
  val tl2 : int

  val lsa : int
  val norec : int
  val etl : int
  val substrate_names : string array

  (** [score i s] rates substrate [i] for a phase with signals [s];
      higher wins. Pure. *)
  val score : int -> signals -> float

  type config = {
    margin : float;  (** challenger must beat the champion by this *)
    streak : int;  (** ... for this many consecutive epochs *)
    dwell : int;  (** epochs a fresh champion is unchallengeable *)
  }

  val default_config : config

  type state

  val initial : state
  val champion : state -> int

  (** One epoch decision: fold the hysteresis state over this epoch's
      signals. Pure — the flap/phase-change tests drive it directly. *)
  val decide : config -> state -> signals -> state
end

module type CONFIG = sig
  val name : string

  (** Committed transactions per epoch (approximate: commit counts are
      flushed from domain-local tallies in batches). *)
  val epoch_length : int

  val policy : Policy.config
end

(** A tournament instance with its own champion/fence/epoch state;
    tests instantiate short epochs to force phase changes quickly. *)
module Make (C : CONFIG) : Runtime_intf.S

(** The registered ["tournament"] instance (256-commit epochs, default
    hysteresis). *)
include Runtime_intf.S
