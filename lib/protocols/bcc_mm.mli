(** Maximal matching in [O(log n)] broadcast-congested-clique rounds of
    [O(log n)] bits each — the other end of the round/bandwidth trade-off
    around the paper's one-round lower bound (cf. Drucker et al. [30] on
    multi-round BCC).

    Each round, every still-unmatched vertex broadcasts one proposal: the
    unmatched neighbour minimising a public-coin edge priority. Broadcasts
    are public, so every participant deterministically resolves the round
    by running greedy over the proposed edges in priority order; matched
    vertices fall silent. Israeli–Itai-style analysis gives [O(log n)]
    rounds w.h.p.; the implementation runs a fixed [3⌈log₂ n⌉ + 8] rounds
    and the referee outputs the accumulated matching. *)

val protocol : n:int -> Dgraph.Matching.t Sketchmodel.Bcc.protocol

val run :
  Dgraph.Graph.t ->
  Sketchmodel.Public_coins.t ->
  Dgraph.Matching.t * Sketchmodel.Rounds.stats

val rounds_for : int -> int
(** The round budget used for an [n]-vertex graph. *)
