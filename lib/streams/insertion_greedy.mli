(** Insertion-only streaming baselines for MM and MIS.

    The classical single-pass algorithms the streaming lower bounds cited
    by the paper ([CDK19] for MIS, [AKLY16] for matching) are measured
    against:

    - greedy maximal matching over an edge-arrival stream, [O(n log n)]
      bits of state;
    - greedy MIS over a vertex-arrival stream (each vertex arrives with its
      edges to earlier vertices), [O(n)] bits of state.

    Both are exact; the interesting quantity is the state size, which the
    module accounts in bits like everything else in this repository. *)

type mm_state

val mm_create : int -> mm_state
val mm_feed : mm_state -> Dgraph.Graph.edge -> unit
val mm_result : mm_state -> Dgraph.Matching.t
val mm_state_bits : mm_state -> int
(** Bits to store the current matching: [2 log n] per matched pair plus the
    matched-vertex bitmap. *)

val mm_of_stream : Stream.t -> Dgraph.Matching.t
(** Runs the matching over a stream; raises [Invalid_argument] if the
    stream contains deletions (greedy cannot handle them — that is the
    point of the linear-sketch comparison). *)

type mis_state

val mis_create : int -> mis_state

val mis_feed : mis_state -> vertex:int -> earlier_neighbors:int list -> unit
(** Vertex-arrival: the vertex and its edges to already-arrived vertices. *)

val mis_result : mis_state -> Dgraph.Mis.t

val mis_of_graph : Dgraph.Graph.t -> order:int array -> Dgraph.Mis.t
(** Replays a vertex-arrival stream in the given order; the result is
    always a maximal independent set of the graph. *)
