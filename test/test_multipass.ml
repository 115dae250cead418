(* Tests for the referee engine ([Sketchmodel.Rounds]: pinned bit counts
   and accounting identities for every protocol that runs through it) and
   for Multipass: the frontier prefix MIS family, the Luby priority
   variants, and multi-pass streaming matching. *)

module Model = Sketchmodel.Model
module MP = Sketchmodel.Rounds
module PC = Sketchmodel.Public_coins
module G = Dgraph.Graph
module S = Streams.Stream

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkis = Alcotest.(check (list int))

let graphs seed =
  let rng = Stdx.Prng.create seed in
  [
    Dgraph.Gen.gnp rng 20 0.2;
    Dgraph.Gen.gnp rng 32 0.1;
    Dgraph.Gen.cycle 15;
    Dgraph.Gen.complete 8;
    Dgraph.Gen.star 6;
  ]

(* ---- Regression: pinned bit counts ----

   These literals were recorded from the five separate round engines the
   single engine replaced (one-round, two-round, r-round, hypergraph
   multi-round, BCC), on the spec the service tests use. Every protocol
   now runs through [Sketchmodel.Rounds]; the literals pin that it still
   charges exactly the same bits. *)

type pinned = {
  rounds : int;
  max_bits : int;
  total_bits : int;
  broadcast_bits : int;
  round_max : int array;
}

(* [pin rounds max_bits total_bits broadcast_bits round_max] *)
let pin rounds max_bits total_bits broadcast_bits round_max =
  { rounds; max_bits; total_bits; broadcast_bits; round_max }

let pinned_catalogue =
  [
    ("trivial-mm", pin 1 80 1904 0 [| 80 |]);
    ("trivial-mis", pin 1 80 1904 0 [| 80 |]);
    ("local-minima", pin 1 1 40 0 [| 1 |]);
    ("two-round-mm", pin 2 72 2200 320 [| 64; 8 |]);
    ("two-round-mis", pin 2 48 1184 88 [| 24; 40 |]);
    ("hyper-trivial-mm", pin 1 216 4752 0 [| 216 |]);
    ("hyper-iterated-mm", pin 3 48 1152 120 [| 24; 24; 0 |]);
    ("hyper-local-minima-mis", pin 1 1 40 0 [| 1 |]);
    ("hyper-luby-mis", pin 4 8 160 320 [| 2; 2; 2; 2 |]);
    ("prefix-mis-r4", pin 4 56 1136 208 [| 24; 16; 24; 24 |]);
    ("luby-mis-random", pin 4 8 152 240 [| 2; 2; 2; 2 |]);
    ("luby-mis-degree", pin 4 14 462 560 [| 8; 2; 2; 2 |]);
    ("luby-mis-index", pin 4 8 156 240 [| 2; 2; 2; 2 |]);
  ]

let check_pinned name (p : pinned) (s : MP.stats) =
  checki (name ^ " rounds") p.rounds s.MP.rounds;
  checki (name ^ " max_bits") p.max_bits s.MP.max_bits;
  checki (name ^ " total_bits") p.total_bits s.MP.total_bits;
  checki (name ^ " broadcast_bits") p.broadcast_bits s.MP.broadcast_bits;
  checkis (name ^ " round_max") (Array.to_list p.round_max) (Array.to_list s.MP.round_max)

let test_pinned_catalogue () =
  let graph = Server.Simulate.Gnp { n = 40; p = 0.15 } in
  let round_based = ref 0 in
  List.iter
    (fun (e : Server.Simulate.entry) ->
      let spec = { Server.Simulate.protocol = e.name; graph; seed = 11 } in
      match (e.run spec).Server.Simulate.cost with
      | Server.Simulate.Per_round s ->
          incr round_based;
          check_pinned e.name (List.assoc e.name pinned_catalogue) s
      | Server.Simulate.Per_pass _ -> ())
    Server.Simulate.catalogue;
  checki "every round-based protocol pinned" (List.length pinned_catalogue) !round_based

let test_pinned_bcc_mm () =
  let dmm = Core.Hard_dist.sample (Rsgraph.Rs_graph.bipartite 5) (Stdx.Prng.create 12) in
  let g = dmm.Core.Hard_dist.graph in
  let mm, s = Protocols.Bcc_mm.run g (PC.create 13) in
  checki "matching size" 19 (List.length mm);
  check_pinned "bcc-mm"
    (pin 26 208 11856 0 (Array.make 26 8))
    s;
  checki "bandwidth (bits per round)" 8 (MP.max_bits_per_round s)

(* ---- Regression: one- and two-round protocols, graph by graph ----

   The fixed one- and two-round engines used to be embedded into the
   r-round engine, and these tests checked that both ran byte-identically.
   Now that there is one engine, each run is pinned per graph of
   [graphs seed] to the output and bits those fixed engines produced:
   (sorted output, max_bits, total_bits, broadcast_bits, round_max). *)

let check_identity out_t ~seed ~coins expected run =
  List.iteri
    (fun i (g, (out, max_bits, total_bits, broadcast_bits, round_max)) ->
      let got, s = run g (PC.create (coins + i)) in
      let name = Printf.sprintf "graph %d" i in
      Alcotest.check out_t (name ^ " output") out (List.sort compare got);
      check_pinned name
        { rounds = Array.length round_max; max_bits; total_bits; broadcast_bits; round_max }
        s;
      checki (name ^ " total is the sum of rounds") s.MP.total_bits
        (Array.fold_left ( + ) 0 s.MP.round_total);
      checki (name ^ " no broadcast after finish") 0 s.MP.round_broadcast.(s.MP.rounds - 1))
    (List.combine (graphs seed) expected)

let mis_t = Alcotest.(list int)
let mm_t = Alcotest.(list (pair int int))

let test_r1_identity_trivial_mis () =
  check_identity mis_t ~seed:11 ~coins:100
    [
      ([ 0; 1; 3; 6; 11; 13; 17; 18; 19 ], 64, 800, 0, [| 64 |]);
      ([ 0; 1; 3; 4; 7; 8; 9; 10; 13; 15; 19; 21; 23; 26; 31 ], 64, 960, 0, [| 64 |]);
      ([ 0; 2; 4; 6; 8; 10; 12 ], 24, 360, 0, [| 24 |]);
      ([ 0 ], 64, 512, 0, [| 64 |]);
      ([ 0 ], 48, 128, 0, [| 48 |]);
    ]
    (Model.run Protocols.Trivial.mis)

let test_r1_identity_local_minima () =
  check_identity mis_t ~seed:12 ~coins:200
    [
      ([ 3; 5; 14; 16 ], 1, 20, 0, [| 1 |]);
      ([ 6; 9; 15; 17; 24; 25; 26; 27 ], 1, 32, 0, [| 1 |]);
      ([ 2; 4; 6; 10; 12; 14 ], 1, 15, 0, [| 1 |]);
      ([ 3 ], 1, 8, 0, [| 1 |]);
      ([ 0 ], 1, 6, 0, [| 1 |]);
    ]
    (Model.run Protocols.One_round_mis.local_minima)

let test_r2_identity_mis () =
  check_identity mis_t ~seed:13 ~coins:300
    [
      ([ 2; 7; 9; 15; 18; 19 ], 48, 600, 52, [| 40; 8 |]);
      ([ 3; 4; 6; 13; 14; 17; 18; 19; 20; 23; 30 ], 40, 776, 88, [| 24; 32 |]);
      ([ 0; 2; 4; 7; 9; 11; 13 ], 32, 384, 47, [| 24; 24 |]);
      ([ 2 ], 40, 296, 24, [| 32; 8 |]);
      ([ 1; 2; 3; 4; 5 ], 40, 120, 38, [| 32; 8 |]);
    ]
    (fun g -> Model.run_rounds (Protocols.Two_round_mis.protocol ~n:(G.n g) ()) g)

let test_r2_identity_mm () =
  check_identity mm_t ~seed:14 ~coins:400
    [
      ( [ (0, 12); (1, 2); (3, 8); (4, 5); (6, 7); (9, 13); (10, 17); (11, 14); (18, 19) ],
        56, 928, 172, [| 48; 8 |] );
      ( [ (0, 21); (1, 13); (2, 3); (4, 23); (5, 11); (6, 19); (7, 14); (8, 9); (10, 24);
          (16, 29); (18, 20); (22, 31) ],
        64, 1136, 232, [| 56; 8 |] );
      ([ (0, 1); (2, 3); (4, 5); (6, 7); (8, 9); (10, 11); (12, 13) ], 32, 480, 135, [| 24; 8 |]);
      ([ (0, 1); (2, 3); (4, 5); (6, 7) ], 40, 320, 80, [| 32; 8 |]);
      ([ (0, 1) ], 40, 160, 30, [| 32; 8 |]);
    ]
    (fun g -> Model.run_rounds (Protocols.Two_round_mm.protocol ~n:(G.n g) ()) g)

(* ---- Engine accounting invariants ---- *)

let test_stats_consistency () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 21) 30 0.2 in
  let coins = PC.create 22 in
  let _, s = Multipass.Frontier.run ~rounds:3 g coins in
  checki "rounds matches arrays" s.MP.rounds (Array.length s.MP.round_max);
  checki "rounds matches totals" s.MP.rounds (Array.length s.MP.round_total);
  checki "rounds matches broadcasts" s.MP.rounds (Array.length s.MP.round_broadcast);
  checki "total is the sum of rounds" s.MP.total_bits
    (Array.fold_left ( + ) 0 s.MP.round_total);
  checki "broadcast is the sum of rounds" s.MP.broadcast_bits
    (Array.fold_left ( + ) 0 s.MP.round_broadcast);
  checkb "max_bits >= each round max" true
    (Array.for_all (fun m -> s.MP.max_bits >= m) s.MP.round_max);
  checki "final round broadcasts nothing" 0 s.MP.round_broadcast.(s.MP.rounds - 1)

let test_max_rounds_guard () =
  let never =
    {
      MP.name = "never-finishes";
      max_rounds = 3;
      init = (fun ~n:_ _ -> ());
      player = (fun ~round:_ _ () _ -> Stdx.Bitbuf.Writer.create ());
      referee = (fun ~round:_ ~n:_ ~state:() ~sketches:_ _ -> MP.Continue ());
      encode_broadcast = (fun () -> Stdx.Bitbuf.Writer.create ());
    }
  in
  checkb "exceeding max_rounds raises" true
    (try
       ignore (Model.run_rounds never (Dgraph.Gen.cycle 4) (PC.create 1));
       false
     with Failure _ -> true)

(* ---- Frontier prefix MIS ---- *)

let test_frontier_blocks () =
  let b = Multipass.Frontier.blocks ~n:100 ~rounds:3 in
  checki "three cutoffs" 3 (Array.length b);
  checki "last cutoff is n" 100 b.(2);
  checkb "monotone" true (b.(0) <= b.(1) && b.(1) <= b.(2));
  let b1 = Multipass.Frontier.blocks ~n:50 ~rounds:1 in
  checkb "r=1 is the whole graph" true (b1 = [| 50 |])

let test_frontier_maximal_all_rounds () =
  List.iteri
    (fun i g ->
      List.iter
        (fun r ->
          let coins = PC.create ((i * 10) + r) in
          let mis, stats = Multipass.Frontier.run ~rounds:r g coins in
          checkb
            (Printf.sprintf "maximal IS (graph %d, r=%d)" i r)
            true
            (Dgraph.Mis.is_maximal g mis);
          checki "uses exactly r rounds" r stats.MP.rounds)
        [ 1; 2; 3; 4 ])
    (graphs 15)

let test_frontier_r1_ships_adjacency () =
  (* r = 1 is the full-information regime: every player reports all its
     neighbours, so the referee could not be cheaper — and more rounds
     shrink the worst single message on a dense graph. *)
  let g = Dgraph.Gen.complete 16 in
  let coins = PC.create 31 in
  let _, s1 = Multipass.Frontier.run ~rounds:1 g coins in
  let _, s4 = Multipass.Frontier.run ~rounds:4 g coins in
  checkb "r=4 max message below r=1" true (s4.MP.max_bits < s1.MP.max_bits)

(* ---- Luby priority variants ---- *)

let test_luby_maximal_all_priorities () =
  List.iteri
    (fun i g ->
      List.iter
        (fun prio ->
          let coins = PC.create ((500 + i) * 3) in
          let mis, stats = Multipass.Luby.run prio g coins in
          checkb
            (Printf.sprintf "maximal IS (%s, graph %d)" (Multipass.Luby.priority_name prio) i)
            true
            (Dgraph.Mis.is_maximal g mis);
          checkb "terminates within the cap" true (stats.MP.rounds <= G.n g + 3))
        [ Multipass.Luby.Random; Multipass.Luby.Degree; Multipass.Luby.Index ])
    (graphs 16)

let test_luby_deterministic () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 41) 24 0.2 in
  let a, sa = Multipass.Luby.run Multipass.Luby.Random g (PC.create 7) in
  let b, sb = Multipass.Luby.run Multipass.Luby.Random g (PC.create 7) in
  checkis "same output" a b;
  checki "same rounds" sa.MP.rounds sb.MP.rounds;
  checki "same bits" sa.MP.total_bits sb.MP.total_bits

let test_luby_index_path_is_slow () =
  (* Under Index priority a path 0-1-...-(n-1) admits one join per round
     from the high end: the deterministic worst case of the family. *)
  let n = 12 in
  let g = Dgraph.Gen.path n in
  let mis, stats = Multipass.Luby.run Multipass.Luby.Index g (PC.create 1) in
  checkb "maximal" true (Dgraph.Mis.is_maximal g mis);
  checkb "needs many rounds" true (stats.MP.rounds >= n / 2)

let test_luby_degree_prep_round () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 51) 20 0.25 in
  let coins = PC.create 52 in
  let _, sd = Multipass.Luby.run Multipass.Luby.Degree g coins in
  (* The prep round charges one uvarint per player and a broadcast. *)
  checkb "prep round broadcast charged" true (sd.MP.round_broadcast.(0) > 0);
  checkb "prep round player bits charged" true (sd.MP.round_max.(0) > 0)

(* ---- Multi-pass streaming matching ---- *)

let test_stream_matching_valid_and_monotone () =
  let rng = Stdx.Prng.create 61 in
  for seed = 1 to 8 do
    let g = Dgraph.Gen.gnp (Stdx.Prng.create (seed * 13)) 40 0.12 in
    let stream = S.shuffled rng g in
    let r = Multipass.Stream_matching.run ~eps:0.34 stream in
    checkb "valid matching" true (Dgraph.Matching.is_matching g r.Multipass.Stream_matching.matching);
    checkb "maximal (pass 1 guarantees it)" true
      (Dgraph.Matching.is_maximal g r.Multipass.Stream_matching.matching);
    let sizes =
      List.map
        (fun p -> p.Multipass.Stream_matching.matching_size)
        r.Multipass.Stream_matching.passes
    in
    checkb "matching never shrinks" true
      (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length sizes - 1) sizes)
         (List.tl sizes));
    checkb "within the optimum" true
      (List.length r.Multipass.Stream_matching.matching
      <= Dgraph.Blossom.maximum_matching_size g)
  done

let test_stream_matching_reaches_near_optimum () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 71) 48 0.15 in
  let stream = S.shuffled (Stdx.Prng.create 72) g in
  let r = Multipass.Stream_matching.run ~eps:0.10 stream in
  let opt = Dgraph.Blossom.maximum_matching_size g in
  let got = List.length r.Multipass.Stream_matching.matching in
  checkb "within (1+eps) of optimum" true (float_of_int opt <= 1.10 *. float_of_int got)

let test_stream_matching_peak_memory () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 81) 36 0.2 in
  let r = Multipass.Stream_matching.run ~eps:0.5 (S.of_graph g) in
  let max_pass =
    List.fold_left
      (fun acc p -> max acc p.Multipass.Stream_matching.memory_bits)
      0 r.Multipass.Stream_matching.passes
  in
  checki "peak is the max over passes" max_pass r.Multipass.Stream_matching.peak_memory_bits;
  checkb "at least one pass" true (List.length r.Multipass.Stream_matching.passes >= 1)

let test_stream_matching_guards () =
  let deletions = { S.n = 3; events = [ S.Insert (0, 1); S.Delete (0, 1) ] } in
  checkb "rejects deletions" true
    (try
       ignore (Multipass.Stream_matching.run deletions);
       false
     with Invalid_argument _ -> true);
  checkb "rejects eps <= 0" true
    (try
       ignore (Multipass.Stream_matching.run ~eps:0.0 { S.n = 2; events = [] });
       false
     with Invalid_argument _ -> true)

let test_stream_matching_pass_budget () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 91) 30 0.3 in
  let r = Multipass.Stream_matching.run ~eps:0.05 ~max_passes:2 (S.of_graph g) in
  checkb "respects the budget" true (List.length r.Multipass.Stream_matching.passes <= 2)

(* ---- Properties ---- *)

(* The engine's accounting identities, which every run must satisfy. *)
let accounting_holds (s : MP.stats) =
  let sum = Array.fold_left ( + ) 0 in
  let curves = [ s.MP.round_max; s.MP.round_total; s.MP.round_broadcast ] in
  List.for_all (fun c -> Array.length c = s.MP.rounds) curves
  && sum s.MP.round_total = s.MP.total_bits
  && sum s.MP.round_broadcast = s.MP.broadcast_bits
  && Array.fold_left max 0 s.MP.round_max <= s.MP.max_bits
  && s.MP.max_bits <= sum s.MP.round_max

(* A random simulate input: gnp, or a k-uniform hypergraph (which only
   the hypergraph protocols accept). *)
let gen_gspec =
  QCheck.Gen.(
    oneof
      [
        map2 (fun n p -> Server.Simulate.Gnp { n; p = float_of_int p /. 10. }) (int_range 0 30)
          (int_range 0 6);
        int_range 3 24 >>= fun n ->
        map2
          (fun m k -> Server.Simulate.Hyperk { n; m; k })
          (int_range 0 30) (int_range 2 (min 4 n));
      ])

let arb_input =
  QCheck.make
    ~print:(fun (g, seed) ->
      Printf.sprintf "%s seed=%d"
        (Report.Tabular.string_of_json (Server.Simulate.json_of_gspec g)) seed)
    QCheck.Gen.(pair gen_gspec (int_range 0 10_000))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"accounting identities: every catalogue protocol" ~count:40
         arb_input
         (fun (graph, seed) ->
           List.for_all
             (fun (e : Server.Simulate.entry) ->
               let spec = { Server.Simulate.protocol = e.name; graph; seed } in
               (not (Server.Simulate.compatible ~protocol:e.name graph))
               ||
               match (e.run spec).Server.Simulate.cost with
               | Server.Simulate.Per_round s -> accounting_holds s
               | Server.Simulate.Per_pass _ -> true)
             Server.Simulate.catalogue));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"accounting identities: bcc-mm" ~count:25
         QCheck.(pair (int_range 1 40) (int_range 0 10000))
         (fun (n, seed) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n 0.2 in
           let _, s = Protocols.Bcc_mm.run g (PC.create (seed + 1)) in
           accounting_holds s && s.MP.broadcast_bits = 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frontier MIS maximal for any (n, seed, r)" ~count:60
         QCheck.(triple (int_range 1 30) (int_range 0 10000) (int_range 1 5))
         (fun (n, seed, r) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n 0.25 in
           let mis, _ = Multipass.Frontier.run ~rounds:r g (PC.create (seed + r)) in
           Dgraph.Mis.is_maximal g mis));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"luby MIS maximal for any priority" ~count:60
         QCheck.(triple (int_range 1 25) (int_range 0 10000) (int_range 0 2))
         (fun (n, seed, p) ->
           let prio =
             match p with 0 -> Multipass.Luby.Random | 1 -> Multipass.Luby.Degree | _ -> Multipass.Luby.Index
           in
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n 0.3 in
           let mis, _ = Multipass.Luby.run prio g (PC.create (seed * 2 + 1)) in
           Dgraph.Mis.is_maximal g mis));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"stream matching maximal for any chunked replay" ~count:40
         QCheck.(triple (int_range 2 25) (int_range 0 10000) (int_range 1 6))
         (fun (n, seed, k) ->
           let rng = Stdx.Prng.create seed in
           let g = Dgraph.Gen.gnp rng n 0.3 in
           let s = S.concat (S.chunks (S.shuffled rng g) k) in
           let r = Multipass.Stream_matching.run ~eps:0.5 s in
           Dgraph.Matching.is_maximal g r.Multipass.Stream_matching.matching));
  ]

let () =
  Alcotest.run "multipass"
    [
      ( "engine",
        [
          Alcotest.test_case "pinned bits (simulate catalogue)" `Quick test_pinned_catalogue;
          Alcotest.test_case "pinned bits (bcc-mm on D_MM)" `Quick test_pinned_bcc_mm;
          Alcotest.test_case "r=1 identity (trivial mis)" `Quick test_r1_identity_trivial_mis;
          Alcotest.test_case "r=1 identity (local minima)" `Quick test_r1_identity_local_minima;
          Alcotest.test_case "r=2 identity (two-round mis)" `Quick test_r2_identity_mis;
          Alcotest.test_case "r=2 identity (two-round mm)" `Quick test_r2_identity_mm;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "max_rounds guard" `Quick test_max_rounds_guard;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "block cutoffs" `Quick test_frontier_blocks;
          Alcotest.test_case "maximal for all r" `Quick test_frontier_maximal_all_rounds;
          Alcotest.test_case "r=1 ships adjacency" `Quick test_frontier_r1_ships_adjacency;
        ] );
      ( "luby",
        [
          Alcotest.test_case "maximal for all priorities" `Quick test_luby_maximal_all_priorities;
          Alcotest.test_case "deterministic" `Quick test_luby_deterministic;
          Alcotest.test_case "index priority path worst case" `Quick test_luby_index_path_is_slow;
          Alcotest.test_case "degree prep round" `Quick test_luby_degree_prep_round;
        ] );
      ( "stream-matching",
        [
          Alcotest.test_case "valid and monotone" `Quick test_stream_matching_valid_and_monotone;
          Alcotest.test_case "near optimum at small eps" `Quick
            test_stream_matching_reaches_near_optimum;
          Alcotest.test_case "peak memory" `Quick test_stream_matching_peak_memory;
          Alcotest.test_case "guards" `Quick test_stream_matching_guards;
          Alcotest.test_case "pass budget" `Quick test_stream_matching_pass_budget;
        ] );
      ("multipass-properties", qcheck_tests);
    ]
