(* The distributed sketching model over hypergraphs: one player per
   vertex, and a player sees the vertex/edge counts, its own id, and the
   full pin set of every incident hyperedge — the hypergraph analogue of
   [Model.view]'s sorted neighbour list (for 2-uniform hypergraphs the
   two views carry the same information). Protocols over these views run
   through the one engine, [Sketchmodel.Rounds]. *)

module Hypergraph = Dgraph.Hypergraph

type view = { n : int; m : int; vertex : int; edges : int array array }

let views h =
  Array.init (Hypergraph.n h) (fun v ->
      {
        n = Hypergraph.n h;
        m = Hypergraph.m h;
        vertex = v;
        edges =
          Array.map (fun e -> Hypergraph.pins h e) (Hypergraph.incident h v);
      })

