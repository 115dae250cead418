(** The referee engine: every protocol in the repository runs here.

    One iteration is one simultaneous sketch round — every player sends
    a message computed from its view, the latest referee broadcast and
    the public coins — followed by one referee step, which either
    broadcasts a new state to all players (its encoded size is charged)
    and runs another round, or stops with the output. The paper's model
    (Section 2.1) is the [max_rounds = 1] case, where the referee
    answers immediately: {!Sketchmodel.Model.run} runs through
    {!one_round}. The [Õ(√n)] upper bounds of Section 1.1 are two-round
    protocols; the broadcast congested clique ({!Sketchmodel.Bcc}) and
    the r-round frontier of arXiv 2209.09049 run any number of rounds.

    The engine is generic over the player-view type ['v]: graph views
    ({!Sketchmodel.Model.view}), hypergraph pin-set views, augmented
    public/unique players and communication-game boards all run through
    the same loop, so there is exactly one place that turns player
    writers into referee readers and bit counts, and exactly one stats
    record.

    Every round is a [protocol.round] trace span (args [round],
    [protocol]), so a Perfetto trace of any protocol shows its round
    structure uniformly; tracing never changes output or stats. *)

(** What the referee does with a round's sketches. *)
type ('b, 'a) step =
  | Continue of 'b
      (** Broadcast ['b] (charged at its [encode_broadcast]
          size) and run another round with it as the players' state. *)
  | Announce of 'b * 'a
      (** Broadcast ['b] (charged) as a final announcement and stop with
          output ['a]: the referee tells everyone the outcome. *)
  | Finish of 'a  (** Stop with output ['a]; nothing is broadcast. *)

type ('v, 'b, 'a) protocol = {
  name : string;
  max_rounds : int;  (** Hard round limit; exceeding it is a protocol bug. *)
  init : n:int -> Public_coins.t -> 'b;
      (** The state players see in round 1. Not charged: it is a pure
          function of public information (n and the coins). *)
  player : round:int -> 'v -> 'b -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
      (** Player sketch for the given (1-based) round, seeing its own view
          and the latest broadcast state only. *)
  referee :
    round:int ->
    n:int ->
    state:'b ->
    sketches:Stdx.Bitbuf.Reader.t array ->
    Public_coins.t ->
    ('b, 'a) step;
      (** Consume a round's sketches (one reader per player, indexed by
          player) given the state the players saw. *)
  encode_broadcast : 'b -> Stdx.Bitbuf.Writer.t;
      (** How a broadcast state would be serialised; only its length is
          used. *)
}

type stats = {
  players : int;  (** Number of players (sketches per round). *)
  rounds : int;  (** Rounds actually run. *)
  max_bits : int;
      (** Worst-case per-player total over all rounds — the paper's
          communication cost when [rounds = 1]. *)
  total_bits : int;  (** Sum over players and rounds. *)
  broadcast_bits : int;  (** Cumulative broadcast cost. *)
  round_max : int array;  (** Per round: worst single player's bits. *)
  round_total : int array;  (** Per round: summed player bits. *)
  round_broadcast : int array;
      (** Per round: the broadcast that {e followed} it ([0] after a
          [Finish]). *)
}
(** The bit accounting of one run; every curve has length [rounds]. *)

val avg_bits : stats -> float
(** [total_bits / players] ([0.] with no players). *)

val round1_max : stats -> int
(** [round_max.(0)]: the first round's worst player. *)

val round2_max : stats -> int
(** [round_max.(1)], or [0] for a run that stopped after one round. *)

val max_bits_per_round : stats -> int
(** The largest per-round maximum: the broadcast congested clique's
    bandwidth measure. *)

val run_views :
  ?schedule:int array ->
  ('v, 'b, 'a) protocol ->
  n:int ->
  'v array ->
  Public_coins.t ->
  'a * stats
(** Run on explicit player views (one player per array slot) over an
    [n]-vertex input; raises [Failure] if the referee has not stopped
    after [max_rounds] rounds.

    [schedule] (a permutation of the player indices; default identity)
    fixes the {e order} in which player sketches are computed within each
    round. Players are simultaneous and independent and sketch slots are
    indexed by player, so every schedule gives identical output and
    stats; the knob exists so tests can pin that invariant, which is what
    makes computing sketches concurrently safe. Raises [Invalid_argument]
    if [schedule] is not a permutation. *)

val one_round :
  name:string ->
  player:('v -> Public_coins.t -> Stdx.Bitbuf.Writer.t) ->
  referee:(n:int -> sketches:Stdx.Bitbuf.Reader.t array -> Public_coins.t -> 'a) ->
  ('v, unit, 'a) protocol
(** The model's single simultaneous round: players sketch, the referee
    answers ([Finish]); [rounds = 1], no broadcast. *)

val of_player_bits : int array -> stats
(** The accounting of one round in which player [i] sent [bits.(i)]
    bits — for costs derived from a simulation rather than measured by a
    run (e.g. one player sending the concatenation of two messages). *)

val pp_stats : Format.formatter -> stats -> unit
