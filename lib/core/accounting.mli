(** Exact information accounting for Theorem 1 (Lemmas 3.3–3.5) on
    enumerable micro-instances of [D_MM].

    The proof of Theorem 1 is a chain of exact information (in)equalities.
    On a micro instance the entire sample space [(σ, j*, edge-drop coins)]
    is enumerable, so every quantity in the chain can be computed
    {e exactly} for a concrete protocol:

    - Eq (1):   [I(M_{1,J}..M_{k,J}; Π | Σ, J) = k·r − H(M | Π, Σ, J)]
    - Lemma 3.3 (referee side): [H(M | Π, Σ, J) <= Pr(O=0)·kr + (kr − E|M^U_π|) + 1]
    - Lemma 3.4: [I(M ; Π | Σ, J) <= H(Π(P)) + Σ_i I(M_{i,J} ; Π(U_i) | Σ, J)]
    - Lemma 3.5: [I(M_{i,J} ; Π(U_i) | Σ, J) <= H(Π(U_i)) / t]
    - Theorem 1: [I(M ; Π | Σ, J) <= |P|·b + k·N·b/t]

    Two Σ modes:
    - [Enumerate_sigma]: Σ uniform over {e all} [n!] permutations — the
      honest sample space; requires [n <= 7], i.e. the {!tiny_rs} instance.
      All five checks apply.
    - [Fix_sigma]: Σ pinned to the identity. Eq (1) and Lemmas 3.3/3.4
      hold conditioned on any fixed σ and are still checked exactly;
      Lemma 3.5's direct-sum argument averages over Σ, so its per-copy
      check is reported but only guaranteed in [Enumerate_sigma] mode.

    The protocols analysed are the deterministic budget-[b] family used
    throughout: every player (in the augmented public/unique model of
    Section 3.1) sends a [b]-bit prefix (or hash) of its adjacency
    bitmap. *)

type strategy =
  | Truncate  (** first [b] bits of the player's adjacency bitmap *)
  | Hash  (** a [b]-bit hash of the whole neighbourhood *)

type sigma_mode = Fix_sigma | Enumerate_sigma

type spec = {
  rs : Rsgraph.Rs_graph.t;
  k : int;
  bits : int;  (** the per-player budget [b] *)
  strategy : strategy;
  sigma_mode : sigma_mode;
}

type report = {
  spec_bits : int;
  outcomes : int;
  sigma_enumerated : bool;
  kr : float;
  info : float;  (** [I(M_{1,J}..M_{k,J} ; Π | Σ, J)] *)
  h_m_given_pi : float;  (** [H(M | Π, Σ, J)] *)
  eq1_residual : float;  (** should be ~0 *)
  expected_recovered : float;  (** [E|M^U_π|] for the certifying referee *)
  lemma33_slack : float;  (** [>= 0] *)
  h_public : float;  (** [H(Π(P))] *)
  per_copy_info : float array;  (** [I(M_{i,J} ; Π(U_i) | Σ, J)] *)
  per_copy_h : float array;  (** [H(Π(U_i))] *)
  lemma34_slack : float;  (** [>= 0] *)
  lemma35_slacks : float array;  (** [>= 0] when [sigma_enumerated] *)
  budget_bound : float;  (** [|P|·b + k·N·b/t] *)
  theorem_slack : float;  (** [>= 0] *)
}

val analyze : spec -> report
(** Requires the space to stay enumerable: [k·|E(rs)| <= 16], and in
    [Enumerate_sigma] mode additionally [n <= 7]. *)

val message : spec -> Sketchmodel.Model.view -> string
(** The [b]-bit message of one player given its view: the adjacency
    bitmap over labels [< bits] ({!Truncate}) or a hash of the whole
    ordered neighbourhood ({!Hash}). The reference semantics the
    enumeration fast paths must reproduce byte-for-byte. *)

val enumerated_views :
  spec -> sigma:int array -> j:int -> code:int -> Sketchmodel.Model.view array
(** The augmented views of one outcome [(σ, j, code)] of the enumeration,
    computed without materialising the outcome's graph ([code] packs the
    [k·|E(rs)|] edge-drop coins, row-major by copy as in {!analyze}).
    Byte-identical to
    [Hard_dist.augmented_views (Hard_dist.make rs ~k ~j_star:j ~sigma ~kept)]
    — the equivalence the test suite pins; {!analyze} runs on this
    graph-free path. *)

val enumerated_messages : spec -> sigma:int array -> j:int -> code:int -> string array
(** Per-player messages of the same outcome, in the player order of
    {!enumerated_views}, computed on the path {!analyze} actually takes:
    the bitmap fast path for {!Truncate} (messages written straight off
    the mapped edge arrays, no views), {!message} over views for
    {!Hash}. Byte-identical to [Array.map (message spec)
    (enumerated_views ...)] — the fast-path equivalence the test suite
    pins. *)

val tiny_rs : unit -> Rsgraph.Rs_graph.t
(** The [(1, 2)]-RS instance (two disjoint edges, [N = 4]) whose [D_MM]
    with [k = 2] has [n = 6] — small enough to enumerate all [6!]
    permutations. *)

val micro_rs : unit -> Rsgraph.Rs_graph.t
(** The genuine bipartite RS construction for [m = 2]
    ([N = 10], [r = 2], [t = 2]); used with [Fix_sigma]. *)

val all_inequalities_hold : report -> bool
(** All checks applicable to the report's Σ mode pass. *)
