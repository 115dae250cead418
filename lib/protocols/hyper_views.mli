(** The distributed sketching model over hypergraphs.

    One player per vertex, as in {!Sketchmodel.Model}; a player's whole
    input is the vertex/edge counts, its own id, and the full pin set of
    every incident hyperedge (for 2-uniform hypergraphs this is the
    graph view). Protocols over these views are ordinary
    {!Sketchmodel.Rounds.protocol}s — one-round ones built with
    {!Sketchmodel.Rounds.one_round}, iterated ones with referee
    broadcasts in between — so their bit accounting is the one engine's. *)

type view = {
  n : int;  (** number of vertices *)
  m : int;  (** number of hyperedges *)
  vertex : int;  (** this player's id *)
  edges : int array array;  (** sorted pins of each incident hyperedge, ascending edge id *)
}
(** Everything a player is allowed to see. *)

val views : Dgraph.Hypergraph.t -> view array
(** The honest per-vertex views. *)

