(** The broadcast congested clique (BCC), and its equivalence with
    distributed sketching when restricted to one round — the observation
    the paper uses to interpret Result 1 as a BCC lower bound
    (Section 1.1, citing [30, 39]).

    In the BCC, computation proceeds in synchronous rounds: every vertex
    broadcasts one message per round which {e all} vertices (and the
    referee) receive; a vertex's state after round [i] is its input plus
    every message of rounds [1..i]. The equivalence:

    - a one-round sketching protocol {e is} a one-round BCC protocol whose
      output is computed by the referee from the round-1 broadcasts;
    - conversely, a one-round BCC protocol yields a sketching protocol with
      identical per-player cost ({!of_sketch} / {!to_sketch} below are
      cost-preserving by construction, and the tests check it).

    Multi-round BCC protocols are strictly stronger; {!run} supports any
    number of rounds so upper bounds like the [Õ(√n)] two-round protocols
    can also be phrased here. *)

type history
(** Everything broadcast so far: {!rounds_so_far} completed rounds, with
    the messages of any of them available through {!round_readers}.

    The history is an on-demand handle, not a materialised list: fresh
    readers for a round exist only once a consumer asks for that round. A
    protocol that replays incrementally (caching the state it derived
    from rounds [1..k] and consuming only rounds [k+1..]) therefore pays
    for each broadcast bit a constant number of times over the whole
    execution, rather than once per vertex per later round. See
    PERFORMANCE.md ("Broadcast history is lazy"). *)

val rounds_so_far : history -> int
(** Number of completed rounds recorded in the history. [0] for the
    history passed to round 1's broadcasts. *)

val round_readers : history -> int -> Stdx.Bitbuf.Reader.t array
(** [round_readers h r] is one fresh reader per vertex over the messages
    of round [r] (1-based). Each call mints fresh readers, so distinct
    consumers never share cursor state. Raises [Invalid_argument] unless
    [1 <= r <= rounds_so_far h]. *)

type 'a protocol = {
  name : string;
  rounds : int;
  broadcast :
    round:int -> Model.view -> history -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
      (** The message vertex [view.vertex] broadcasts in [round]
          (1-based), given everything broadcast before. *)
  output : n:int -> history -> Public_coins.t -> 'a;
      (** The referee's output from the full history. *)
}

val run : 'a protocol -> Dgraph.Graph.t -> Public_coins.t -> 'a * Rounds.stats
(** Runs through {!Sketchmodel.Rounds.run_views} with the history as the
    engine state. The referee forwards nothing of its own — every
    broadcast is already charged as its sender's player bits — so
    [broadcast_bits = 0]. The BCC measures are
    {!Sketchmodel.Rounds.max_bits_per_round} (bandwidth), [max_bits]
    (worst total broadcast by one vertex) and [rounds]. *)

val of_sketch : 'a Model.protocol -> 'a protocol
(** A sketching protocol as a one-round BCC protocol (same messages). *)

val to_sketch : 'a protocol -> 'a Model.protocol
(** A {e one-round} BCC protocol as a sketching protocol; raises
    [Invalid_argument] if [rounds <> 1]. *)
