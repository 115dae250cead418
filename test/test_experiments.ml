(* Smoke tests for the per-table experiment modules ([Core.Exp_*]):
   every table/figure generator returns rows with internally consistent
   fields at small sizes. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_rs_table () =
  let open Core.Exp_rs in
  let rows = compute ~ms:[ 3; 6 ] () in
  checki "two rows" 2 (List.length rows);
  List.iter
    (fun { row; verified } ->
      checkb "verified" true verified;
      checki "edges = r*t" (row.Rsgraph.Params.r * row.Rsgraph.Params.t) row.Rsgraph.Params.edges)
    rows

let test_behrend_table () =
  let open Core.Exp_behrend in
  let rows = compute ~ms:[ 10; 25 ] () in
  List.iter
    (fun r ->
      checkb "best = max(greedy, behrend)" true
        (r.best_size = max r.greedy_size r.behrend_size);
      (match r.exact_size with
      | Some e -> checkb "exact >= best" true (e >= r.best_size)
      | None -> ());
      checkb "rate positive" true (r.rate > 0.))
    rows

let test_claim31 () =
  let open Core.Exp_claim31 in
  let rows = compute ~ms:[ 5 ] ~samples:3 ~seed:1 () in
  List.iter
    (fun r ->
      checkb "min <= mean" true (float_of_int r.min_union <= r.mean_union +. 1e-9);
      checkb "violations bounded" true (r.violations >= 0 && r.violations <= r.samples))
    rows

let test_budget_sweep () =
  let open Core.Exp_budget_sweep in
  let sweep = compute ~m:5 ~budgets:[ 4; 4096 ] ~trials:2 ~seed:2 () in
  checki "rows = budgets x strategies" (2 * 3) (List.length sweep.rows);
  List.iter
    (fun r ->
      checkb "fractions in range" true
        (r.special_recovered >= 0. && r.special_recovered <= 1.
        && r.relaxed_success >= 0. && r.relaxed_success <= 1.))
    sweep.rows;
  (* Huge budget should reach full relaxed success; oracle always does. *)
  let big = List.filter (fun r -> r.budget_bits = 4096) sweep.rows in
  List.iter (fun r -> checkb "large budget succeeds" true (r.relaxed_success >= 0.99)) big;
  checkb "oracle succeeds" true (sweep.oracle_success >= 0.99);
  checkb "oracle is cheap" true (sweep.oracle_bits <= 32)

let test_info_accounting () =
  let open Core.Exp_info_accounting in
  let reports = compute ~bits:[ 2 ] in
  checki "two sigma modes" 2 (List.length reports);
  List.iter
    (fun r -> checkb "inequalities hold" true (Core.Accounting.all_inequalities_hold r))
    reports

let test_upper_bounds () =
  let open Core.Exp_upper_bounds in
  let rows = compute ~ns:[ 48 ] ~seed:3 in
  List.iter
    (fun r ->
      checkb "agm ok" true r.agm_ok;
      checkb "coloring ok" true r.coloring_ok;
      checkb "two-round mm ok" true r.two_round_mm_ok;
      checkb "two-round mis ok" true r.two_round_mis_ok;
      checkb "bits positive" true (r.trivial_mm_bits > 0))
    rows

let test_coloring_contrast () =
  let open Core.Exp_coloring_contrast in
  let rows = compute ~ns:[ 128 ] ~seed:4 in
  List.iter
    (fun r ->
      checkb "proper" true r.proper;
      checkb "ratio sane" true (r.ratio > 0. && r.ratio <= 1.2))
    rows

let test_bound_curve () =
  let open Core.Exp_bound_curve in
  let rows = compute ~ms:[ 5; 20 ] in
  (match rows with
  | [ a; b ] ->
      checkb "n grows" true (b.n_dmm > a.n_dmm);
      checkb "LB below 2-round UB" true (a.lower_bound_bits < a.two_round_bits);
      checkb "2-round below trivial" true (a.two_round_bits < a.trivial_bits)
  | _ -> Alcotest.fail "expected two rows")

let test_reduction () =
  let open Core.Exp_reduction in
  let rows = compute ~ms:[ 4 ] ~samples:2 ~seed:5 in
  List.iter
    (fun r ->
      checkb "lemma" true r.lemma41_all;
      checkb "complete" true r.complete_all;
      checkb "min exact" true r.min_rule_exact_all;
      checkb "ratio <= 2" true (r.cost_ratio <= 2. +. 1e-9))
    rows

let test_bridge () =
  let open Core.Exp_bridge in
  let rows = compute ~halves:[ 24 ] ~samples:[ 3 ] ~trials:4 ~seed:6 in
  List.iter
    (fun r ->
      checkb "success rate valid" true (r.success >= 0. && r.success <= 1.);
      checkb "bits positive" true (r.max_bits > 0))
    rows

let test_packing () =
  let open Core.Exp_packing in
  let rows = compute ~ms:[ 4 ] ~tries:300 ~seed:7 () in
  List.iter
    (fun r -> checkb "some packing" true (r.packed_t >= 1 && r.behrend_t >= 1))
    rows

let test_estimate () =
  let open Core.Exp_estimate_info in
  let rows = compute ~bits:[ 14 ] ~samples:2000 ~seed:8 () in
  List.iter (fun r -> checkb "error small at saturating b" true (r.abs_error < 0.25)) rows

let test_yao () =
  let open Core.Exp_yao in
  let rows = compute ~m:5 ~budgets:[ 24 ] ~instances:6 ~seeds:3 ~seed:9 in
  List.iter
    (fun r ->
      checkb "dominates" true r.dominates;
      checkb "rates in range" true
        (r.randomized >= 0. && r.randomized <= r.derandomized +. 1e-9))
    rows

let test_bcc () =
  let open Core.Exp_bcc in
  let rows = compute ~ms:[ 5 ] ~trials:2 ~seed:10 in
  List.iter
    (fun r ->
      checkb "bcc maximal" true r.bcc_maximal;
      checkb "bits per round tiny" true (r.bcc_bits_per_round <= 24))
    rows

let test_k_sweep_smoke () =
  let open Core.Exp_k_sweep in
  let rows = compute ~m:5 ~ks:[ 2; 5 ] ~budgets:[ 8; 512 ] ~trials:2 ~seed:11 in
  checki "rows" 2 (List.length rows);
  List.iter (fun r -> checkb "LB positive" true (r.predicted > 0.)) rows

let test_streams_smoke () =
  let open Core.Exp_streams in
  let rows = compute ~ns:[ 20 ] ~seed:12 in
  List.iter
    (fun r ->
      checkb "forest ok" true r.forest_ok;
      checkb "bits equal" true r.messages_identical)
    rows

let test_connectivity_smoke () =
  let open Core.Exp_connectivity in
  let rows = compute ~seed:13 in
  List.iter
    (fun r ->
      checkb "cert valid" true r.cert_valid;
      checki "estimate exact" r.truth r.estimate;
      checkb "bipartite agrees" true (r.bipartite_sketch = r.bipartite_truth))
    rows

let test_rounds_smoke () =
  let open Core.Exp_rounds in
  let rows = compute ~ms:[ 5 ] ~seed:14 in
  List.iter
    (fun r ->
      checkb "two-round mm" true r.two_round_mm_maximal;
      checkb "two-round mis" true r.two_round_mis_maximal;
      checkb "one-round fraction valid" true
        (r.one_round_undominated >= 0. && r.one_round_undominated < 1.))
    rows

let test_approx_smoke () =
  let open Core.Exp_approx_matching in
  let rows = compute ~ns:[ 24 ] ~budgets:[ 16 ] ~trials:2 ~seed:15 in
  List.iter
    (fun r -> checkb "ratio in (0,1]" true (r.ratio_mean > 0. && r.ratio_mean <= 1.))
    rows

let () =
  Alcotest.run "experiments"
    [
      ( "experiments",
        [
          Alcotest.test_case "T1 rs table" `Quick test_rs_table;
          Alcotest.test_case "T2 behrend table" `Quick test_behrend_table;
          Alcotest.test_case "T3 claim31" `Quick test_claim31;
          Alcotest.test_case "F4 budget sweep" `Quick test_budget_sweep;
          Alcotest.test_case "F5 info accounting" `Slow test_info_accounting;
          Alcotest.test_case "T6 upper bounds" `Quick test_upper_bounds;
          Alcotest.test_case "T6b coloring contrast" `Quick test_coloring_contrast;
          Alcotest.test_case "F7 bound curve" `Quick test_bound_curve;
          Alcotest.test_case "T8 reduction" `Quick test_reduction;
          Alcotest.test_case "F9 bridge" `Quick test_bridge;
          Alcotest.test_case "T2b packing" `Quick test_packing;
          Alcotest.test_case "F5b estimate" `Quick test_estimate;
          Alcotest.test_case "T13 yao" `Quick test_yao;
          Alcotest.test_case "T14 bcc" `Quick test_bcc;
          Alcotest.test_case "F11 k-sweep" `Quick test_k_sweep_smoke;
          Alcotest.test_case "T10 streams" `Quick test_streams_smoke;
          Alcotest.test_case "T11 connectivity" `Slow test_connectivity_smoke;
          Alcotest.test_case "T12 rounds" `Quick test_rounds_smoke;
          Alcotest.test_case "F10 approx" `Quick test_approx_smoke;
        ] );
    ]
