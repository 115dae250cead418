(* Tests for the columnar freeze primitives (lib/cset): the radix
   sort's equivalence to [Array.sort], the distinct-key helpers, and the
   neighbour CSR fill. The graph and hypergraph freezes built on them
   are tested in test_graph.ml and test_hypergraph.ml. *)

module C = Cset.Columnar

let checki = Alcotest.(check int)

(* --- Columnar primitives --- *)

let test_sort_keys_small_and_large () =
  let rng = Stdx.Prng.create 17 in
  List.iter
    (fun len ->
      let a = Array.init len (fun _ -> Stdx.Prng.int rng 1_000_000) in
      let b = Array.copy a in
      C.sort_keys a;
      Array.sort compare b;
      Alcotest.(check (array int)) (Printf.sprintf "len %d" len) b a)
    [ 0; 1; 7; 511; 512; 513; 5000 ]

let test_radix_matches_array_sort () =
  let rng = Stdx.Prng.create 19 in
  for _ = 1 to 10 do
    (* Mixed magnitudes force differing radix pass counts. *)
    let len = 512 + Stdx.Prng.int rng 2000 in
    let bits = 1 + Stdx.Prng.int rng 50 in
    let a = Array.init len (fun _ -> Stdx.Prng.int rng (1 lsl bits)) in
    let b = Array.copy a in
    C.radix_sort_nonneg a;
    Array.sort compare b;
    Alcotest.(check (array int)) "radix == Array.sort" b a
  done

let test_distinct_helpers () =
  let a = [| 0; 0; 1; 3; 3; 3; 9 |] in
  checki "count_distinct" 4 (C.count_distinct a);
  let seen = ref [] in
  C.iter_distinct (fun v -> seen := v :: !seen) a;
  Alcotest.(check (list int)) "iter_distinct" [ 0; 1; 3; 9 ] (List.rev !seen);
  checki "empty" 0 (C.count_distinct [||])

let test_neighbor_csr () =
  (* Normalised, lexicographically sorted edge columns of a 5-path plus
     a chord. *)
  let eu = [| 0; 0; 1; 2; 3 |] and ev = [| 1; 2; 2; 3; 4 |] in
  let row, col = C.neighbor_csr ~n:5 ~eu ~ev in
  Alcotest.(check (array int)) "row_start" [| 0; 2; 4; 7; 9; 10 |] row;
  Alcotest.(check (array int)) "cols" [| 1; 2; 0; 2; 0; 1; 3; 2; 4; 3 |] col

let () =
  Alcotest.run "cset"
    [
      ( "columnar",
        [
          Alcotest.test_case "sort_keys all sizes" `Quick test_sort_keys_small_and_large;
          Alcotest.test_case "radix == Array.sort" `Quick test_radix_matches_array_sort;
          Alcotest.test_case "distinct helpers" `Quick test_distinct_helpers;
          Alcotest.test_case "neighbor csr" `Quick test_neighbor_csr;
        ] );
    ]
