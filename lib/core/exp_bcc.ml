(* T14: BCC rounds vs bandwidth trade-off on D_MM (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Model = Sketchmodel.Model
module Public_coins = Sketchmodel.Public_coins
module Rs = Rsgraph.Rs_graph

type row = {
  bn : int;
  bcc_rounds : int;
  bcc_bits_per_round : int;
  bcc_total_bits : int;
  bcc_maximal : bool;
  one_round_same_budget_maximal : float;
}

let compute ~ms ~trials ~seed =
  List.map
    (fun m ->
      let rs = Rs.bipartite m in
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + m)) in
      let dmm = Hard_dist.sample rs rng in
      let g = dmm.Hard_dist.graph in
      let coins = Public_coins.create (Stdx.Hashing.mix64 (seed * 19 + m)) in
      let mm, stats = Protocols.Bcc_mm.run g coins in
      (* Apples to apples: the BCC bandwidth measure is bits per round, so
         the one-round comparison gets exactly that per-player budget. *)
      let budget = Sketchmodel.Rounds.max_bits_per_round stats in
      let successes = ref 0 in
      for i = 1 to trials do
        let one_round =
          Protocols.Sampled_mm.protocol ~budget_bits:budget
            ~strategy:Protocols.Sampled_mm.Uniform
        in
        let out, _ =
          Model.run one_round g (Public_coins.create (Stdx.Hashing.mix64 (seed + (i * 71))))
        in
        if Dgraph.Matching.is_maximal g out then incr successes
      done;
      {
        bn = dmm.Hard_dist.n;
        bcc_rounds = stats.Sketchmodel.Rounds.rounds;
        bcc_bits_per_round = Sketchmodel.Rounds.max_bits_per_round stats;
        bcc_total_bits = stats.Sketchmodel.Rounds.max_bits;
        bcc_maximal = Dgraph.Matching.is_maximal g mm;
        one_round_same_budget_maximal = float_of_int !successes /. float_of_int trials;
      })
    ms

let schema =
  [
    T.int_col ~width:8 ~header:"n" "n";
    T.int_col ~width:8 ~header:"rounds" "bcc_rounds";
    T.int_col ~width:11 ~header:"bits/round" "bcc_bits_per_round";
    T.int_col ~width:11 ~header:"total bits" "bcc_total_bits";
    T.bool_col ~width:9 ~header:"maximal" "bcc_maximal";
    T.float_col ~width:21 ~digits:2 ~header:"1-round same b/round" "one_round_same_budget_maximal";
  ]

let to_row r =
  T.
    [
      Int r.bn;
      Int r.bcc_rounds;
      Int r.bcc_bits_per_round;
      Int r.bcc_total_bits;
      Bool r.bcc_maximal;
      Float r.one_round_same_budget_maximal;
    ]

let preamble =
  [
    "";
    "T14. BCC rounds vs bandwidth on D_MM: O(log n) rounds of O(log n)-bit broadcasts";
    "     solve MM; one round at the same per-round bandwidth does not.";
  ]

let experiment =
  R.make ~id:"bcc" ~title:"T14" ~doc:"T14: BCC rounds/bandwidth trade-off on D_MM."
    ~params:
      (R.std_params
         [
           R.ints_param "m" ~doc:"RS parameters m." [ 10; 25 ];
           R.int_param "trials" ~doc:"One-round trials." 10;
         ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("m", R.Vints [ 10 ]); ("trials", R.Vint 3); ("seed", R.Vint 67) ]
    ~full:[ ("m", R.Vints [ 10; 25 ]); ("trials", R.Vint 10); ("seed", R.Vint 67) ]
    ~smoke:[ ("m", R.Vints [ 4 ]); ("trials", R.Vint 2) ]
    (fun ps ->
      compute ~ms:(R.ints_value ps "m") ~trials:(R.int_value ps "trials") ~seed:(R.seed ps))
