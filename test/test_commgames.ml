(* Tests for Commgames.Simultaneous: the NIH / shared / NOF spectrum of
   Section 2.1, and the public-coin EQUALITY protocol. *)

module S = Commgames.Simultaneous
module PC = Sketchmodel.Public_coins

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_nih_classified () =
  let s = S.nih_example ~players:4 ~per_player:3 in
  checkb "NIH" true (S.classify s = S.Nih);
  Alcotest.(check (array int)) "each coordinate once" (Array.make 12 1) (S.multiplicity s)

let test_nof_classified () =
  let s = S.nof_example ~players:4 ~block:2 in
  checkb "NOF" true (S.classify s = S.Nof);
  Alcotest.(check (array int)) "each coordinate players-1 times" (Array.make 8 3)
    (S.multiplicity s)

let test_two_party_full_overlap_is_shared () =
  (* With 2 players, "sees everything but its own" degenerates; full
     overlap classifies as Shared 2, not NOF. *)
  let s = { S.players = 2; coordinates = 4; view = (fun _ -> [ 0; 1; 2; 3 ]) } in
  checkb "Shared 2" true (S.classify s = S.Shared 2)

let test_vertex_partition_is_shared_two () =
  (* The paper's claim: the sketching model lies between NIH and NOF — each
     edge slot is seen by exactly its two endpoints. *)
  (* Fun corner case checked separately: at n = 3 "each slot seen by two
     players" coincides with "all but one", i.e. the game IS
     number-on-forehead. *)
  checkb "n=3 degenerates to NOF" true (S.classify (S.of_vertex_partition ~n:3) = S.Nof);
  List.iter
    (fun n ->
      let s = S.of_vertex_partition ~n in
      checki "players" n s.S.players;
      checki "slots" (n * (n - 1) / 2) s.S.coordinates;
      checkb "strictly between NIH and NOF" true (S.classify s = S.Shared 2);
      Alcotest.(check (array int)) "every slot seen exactly twice"
        (Array.make s.S.coordinates 2) (S.multiplicity s);
      (* Player v sees exactly n-1 slots. *)
      for v = 0 to n - 1 do
        checki "degree of view" (n - 1) (List.length (s.S.view v))
      done)
    [ 4; 5; 8 ]

let test_vertex_partition_views_consistent () =
  (* Slot shared between u's and v's views is unique to that pair. *)
  let n = 6 in
  let s = S.of_vertex_partition ~n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let shared =
        List.filter (fun c -> List.mem c (s.S.view v)) (s.S.view u)
      in
      checki (Printf.sprintf "(%d,%d) share one slot" u v) 1 (List.length shared)
    done
  done

let test_equality_equal_strings () =
  let bits = 32 in
  let structure = S.equality_structure ~bits in
  checkb "equality board is NIH" true (S.classify structure = S.Nih);
  let rng = Stdx.Prng.create 1 in
  for seed = 1 to 20 do
    let x = Array.init bits (fun _ -> Stdx.Prng.bool rng) in
    let input = Array.append x x in
    let verdict, stats =
      S.run structure (S.equality_two_party ~bits ~reps:8) ~input (PC.create seed)
    in
    checkb "accepts equal" true verdict;
    checki "8 bits per player" 8 stats.Sketchmodel.Rounds.max_bits
  done

let test_equality_unequal_strings () =
  let bits = 32 in
  let structure = S.equality_structure ~bits in
  let rng = Stdx.Prng.create 2 in
  let rejections = ref 0 in
  let trials = 50 in
  for seed = 1 to trials do
    let x = Array.init bits (fun _ -> Stdx.Prng.bool rng) in
    (* flip one random coordinate *)
    let flip = Stdx.Prng.int rng bits in
    let y = Array.copy x in
    y.(flip) <- not y.(flip);
    let input = Array.append x y in
    let verdict, _ =
      S.run structure (S.equality_two_party ~bits ~reps:10) ~input (PC.create (seed * 7))
    in
    if not verdict then incr rejections
  done;
  (* One-sided error 2^-10 per trial: essentially all rejected. *)
  checkb (Printf.sprintf "rejected %d/%d" !rejections trials) true (!rejections >= trials - 1)

let test_run_guards () =
  let s = S.nih_example ~players:2 ~per_player:2 in
  Alcotest.check_raises "wrong input length" (Invalid_argument "Simultaneous.run: input length")
    (fun () ->
      ignore (S.run s (S.equality_two_party ~bits:2 ~reps:1) ~input:[| true |] (PC.create 1)))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"vertex partition always Shared 2" ~count:30
         (QCheck.int_range 2 20)
         (fun n ->
           let s = S.of_vertex_partition ~n in
           Array.for_all (fun c -> c = 2) (S.multiplicity s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"equality never rejects equal inputs" ~count:100
         QCheck.(pair (int_range 1 40) (int_range 0 10000))
         (fun (bits, seed) ->
           let rng = Stdx.Prng.create seed in
           let x = Array.init bits (fun _ -> Stdx.Prng.bool rng) in
           let verdict, _ =
             S.run (S.equality_structure ~bits)
               (S.equality_two_party ~bits ~reps:6)
               ~input:(Array.append x x) (PC.create (seed + 1))
           in
           verdict));
  ]

let () =
  Alcotest.run "commgames"
    [
      ( "structure",
        [
          Alcotest.test_case "NIH" `Quick test_nih_classified;
          Alcotest.test_case "NOF" `Quick test_nof_classified;
          Alcotest.test_case "two-party overlap" `Quick test_two_party_full_overlap_is_shared;
          Alcotest.test_case "vertex partition = Shared 2" `Quick
            test_vertex_partition_is_shared_two;
          Alcotest.test_case "views consistent" `Quick test_vertex_partition_views_consistent;
        ] );
      ( "equality",
        [
          Alcotest.test_case "equal accepted" `Quick test_equality_equal_strings;
          Alcotest.test_case "unequal rejected" `Quick test_equality_unequal_strings;
          Alcotest.test_case "guards" `Quick test_run_guards;
        ] );
      ("commgames-properties", qcheck_tests);
    ]
