(** Simultaneous-message multiparty communication games with {e shared}
    inputs — the abstraction Section 2.1 places the paper's model in.

    A game over a coordinate universe assigns each player a subset of the
    coordinates (its {e view}). The two classical extremes:
    - number-in-hand (NIH): the view sets are pairwise disjoint;
    - number-on-forehead (NOF): player [i] sees every coordinate except
      its own block.

    The paper's model sits strictly between: the coordinates are edge
    slots and every slot lies in {e exactly two} players' views (each edge
    is seen by both endpoints). {!classify} computes where on this
    spectrum a game sits; {!of_vertex_partition} builds the sketching
    model's game for a given [n] and lets the tests verify the "between
    NIH and NOF" claim structurally rather than rhetorically. *)

type structure = {
  players : int;
  coordinates : int;
  view : int -> int list;  (** sorted coordinate indices player [i] sees *)
}

type sharing =
  | Nih  (** every coordinate in at most one view *)
  | Shared of int  (** maximum multiplicity, [>= 2], but not NOF *)
  | Nof  (** every coordinate seen by exactly [players - 1] players *)

val classify : structure -> sharing

val multiplicity : structure -> int array
(** [multiplicity s] counts, per coordinate, how many players see it. *)

val nih_example : players:int -> per_player:int -> structure
val nof_example : players:int -> block:int -> structure

val of_vertex_partition : n:int -> structure
(** The paper's model as a game: coordinates are the [n(n-1)/2] potential
    edge slots; player [v] sees exactly the slots incident to [v]. *)

(** {1 Simultaneous protocols over boolean inputs}

    A protocol sends one message per player (a function of the player's
    visible coordinates and public coins); the referee combines them.
    Costs are exact bit counts, as everywhere in this repository. *)

type 'a protocol = {
  name : string;
  player :
    int -> bool array -> Sketchmodel.Public_coins.t -> Stdx.Bitbuf.Writer.t;
      (** [player i visible coins]: [visible] lists the values of player
          [i]'s coordinates, in [view i] order. *)
  referee :
    sketches:Stdx.Bitbuf.Reader.t array -> Sketchmodel.Public_coins.t -> 'a;
}

val run :
  structure ->
  'a protocol ->
  input:bool array ->
  Sketchmodel.Public_coins.t ->
  'a * Sketchmodel.Rounds.stats
(** One simultaneous round through {!Sketchmodel.Rounds.run_views}, with
    one player per board seat. *)

val equality_two_party : bits:int -> reps:int -> bool protocol
(** The classic public-coin simultaneous EQUALITY protocol on the 2-player
    NIH game of {!equality_structure}: each player sends [reps] one-bit
    random inner products of its own [bits]-bit string with shared masks;
    the referee accepts iff all pairs agree. One-sided error [2^{-reps}]
    on unequal inputs, zero error on equal ones — the textbook example of
    public coins making a simultaneous game easy, mirroring how public
    coins power every sketch in this repository. *)

val equality_structure : bits:int -> structure
(** The NIH board: [2·bits] coordinates, player 0 sees the first block
    (its string [x]), player 1 the second ([y]). *)
