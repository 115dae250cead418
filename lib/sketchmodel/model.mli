(** The one-round distributed sketching model (Section 2.1).

    One player per vertex; a player's whole input is the number of vertices,
    its own id, and its sorted neighbour list. All players simultaneously
    send one message (a {e sketch}) to the referee, who sees only the
    messages and the public coins. Communication cost is the worst-case
    message length in bits — measured exactly from the bit buffers, never
    estimated. *)

type view = {
  n : int;  (** number of vertices in the graph *)
  vertex : int;  (** this player's id *)
  neighbors : int array;  (** sorted ids of adjacent vertices *)
}
(** Everything a player is allowed to see. *)

val views : Dgraph.Graph.t -> view array
(** The honest per-vertex views of a graph. *)

type 'a protocol = {
  name : string;
  player : view -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
      (** The sketch of one vertex: a function of its view and the public
          coins only. *)
  referee : n:int -> sketches:Stdx.Bitbuf.Reader.t array -> Public_coins.t -> 'a;
      (** Output from the sketches and the coins; no access to the graph. *)
}

val run : 'a protocol -> Dgraph.Graph.t -> Public_coins.t -> 'a * Rounds.stats
(** Executes one round honestly through {!Sketchmodel.Rounds.run_views}:
    builds views, runs every player, hands the referee read-only
    sketches, and accounts bits ([rounds = 1], no broadcast). *)

val run_views :
  ?schedule:int array -> 'a protocol -> n:int -> view array -> Public_coins.t -> 'a * Rounds.stats
(** Same, but over explicit views — used by the public/unique augmented
    player model of Section 3.1, where the number of players exceeds [n]
    and views are not the honest per-vertex ones. [schedule] fixes the
    order player sketches are computed in and never changes the result
    (see {!Sketchmodel.Rounds.run_views}). *)

val run_rounds :
  (view, 'b, 'a) Rounds.protocol -> Dgraph.Graph.t -> Public_coins.t -> 'a * Rounds.stats
(** A multi-round protocol over the graph's honest per-vertex views: the
    adaptive extension in which the referee broadcasts between rounds. *)

val success_rate :
  trials:int -> seed:int -> (Public_coins.t -> bool) -> float
(** Runs a boolean experiment over [trials] independent public-coin seeds
    and returns the empirical success probability. *)
