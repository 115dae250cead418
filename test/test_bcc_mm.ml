(* Tests for Protocols.Bcc_mm: maximal matching in O(log n) BCC rounds. *)

module PC = Sketchmodel.Public_coins

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_always_maximal_random () =
  let rng = Stdx.Prng.create 1 in
  for seed = 1 to 15 do
    let n = 10 + Stdx.Prng.int rng 60 in
    let g = Dgraph.Gen.gnp rng n 0.2 in
    let mm, _ = Protocols.Bcc_mm.run g (PC.create (seed * 13)) in
    checkb (Printf.sprintf "maximal seed=%d n=%d" seed n) true (Dgraph.Matching.is_maximal g mm)
  done

let test_shapes () =
  List.iter
    (fun (name, g) ->
      let mm, _ = Protocols.Bcc_mm.run g (PC.create 9) in
      checkb name true (Dgraph.Matching.is_maximal g mm))
    [
      ("complete", Dgraph.Gen.complete 15);
      ("path", Dgraph.Gen.path 21);
      ("cycle", Dgraph.Gen.cycle 16);
      ("star", Dgraph.Gen.star 12);
      ("empty", Dgraph.Graph.empty 7);
      ("grid", Dgraph.Gen.grid 5 6);
    ]

let test_cost_logarithmic () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 2) 100 0.1 in
  let _, stats = Protocols.Bcc_mm.run g (PC.create 3) in
  checki "rounds as configured" (Protocols.Bcc_mm.rounds_for 100)
    stats.Sketchmodel.Rounds.rounds;
  (* Each broadcast is one uvarint: at most 2 bytes for ids < 2^14. *)
  checkb "per-round bits tiny" true (Sketchmodel.Rounds.max_bits_per_round stats <= 16);
  checkb "total = rounds x per-round-ish" true
    (stats.Sketchmodel.Rounds.max_bits
    <= stats.Sketchmodel.Rounds.rounds * Sketchmodel.Rounds.max_bits_per_round stats)

let test_rounds_grow_slowly () =
  checkb "log growth" true
    (Protocols.Bcc_mm.rounds_for 4096 <= Protocols.Bcc_mm.rounds_for 64 + 18)

let test_deterministic_given_coins () =
  let g = Dgraph.Gen.gnp (Stdx.Prng.create 4) 40 0.25 in
  let a, _ = Protocols.Bcc_mm.run g (PC.create 5) in
  let b, _ = Protocols.Bcc_mm.run g (PC.create 5) in
  checkb "same matching" true (a = b)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"bcc matching maximal on random graphs" ~count:25
         QCheck.(pair (int_range 2 40) (int_range 0 10000))
         (fun (n, seed) ->
           let g = Dgraph.Gen.gnp (Stdx.Prng.create seed) n 0.3 in
           let mm, _ = Protocols.Bcc_mm.run g (PC.create (seed + 1)) in
           Dgraph.Matching.is_maximal g mm));
  ]

let () =
  Alcotest.run "bcc_mm"
    [
      ( "bcc-mm",
        [
          Alcotest.test_case "always maximal" `Quick test_always_maximal_random;
          Alcotest.test_case "shapes" `Quick test_shapes;
          Alcotest.test_case "cost logarithmic" `Quick test_cost_logarithmic;
          Alcotest.test_case "rounds grow slowly" `Quick test_rounds_grow_slowly;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_coins;
        ] );
      ("bcc-mm-properties", qcheck_tests);
    ]
