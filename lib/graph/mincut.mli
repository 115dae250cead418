(** Global minimum edge cut (Stoer–Wagner).

    The referee-side oracle for the edge-connectivity sketching experiment:
    AGM-style sketches produce a sparse certificate (a union of [k]
    edge-disjoint spanning forests), and this exact min-cut decides whether
    the certificate preserves connectivity values below [k]. *)

val min_cut : Graph.t -> int
(** Size (number of edges) of a global minimum cut. By convention returns
    [0] for disconnected graphs and [max_int] for graphs with fewer than
    two vertices. Runs in [O(n^3)]. *)

val is_k_edge_connected : Graph.t -> int -> bool
(** [is_k_edge_connected g k]: the graph is connected and every cut has at
    least [k] edges. [k <= 0] is always true for non-empty graphs. *)
