(* T3: Claim 3.1 — unique-unique edges in maximal matchings of G ~ D_MM
   (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Rs = Rsgraph.Rs_graph
module Params = Rsgraph.Params

type row = {
  m : int;
  k : int;
  r : int;
  n : int;
  samples : int;
  min_union : int;
  mean_union : float;
  chernoff_threshold : float;
  min_unique_unique : int;
  claim_threshold : float;
  violations : int;
  failure_bound : float;
  consistent : bool;
}

let compute ?jobs ~ms ~samples ~seed () =
  List.map
    (fun m ->
      let rs = Rs.bipartite m in
      (* Per-trial seeding scheme: trial [i] draws from [split root i], so
         the sample set is a pure function of [(seed, m, i)] and the trials
         shard across domains without changing a single bit. *)
      let root = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + m)) in
      let stats_list =
        Stdx.Parallel.init ?jobs samples (fun i ->
            let rng = Stdx.Prng.split root i in
            let dmm = Hard_dist.sample rs rng in
            Claims.check dmm ())
        |> Array.to_list
      in
      let unions = List.map (fun s -> s.Claims.union_special) stats_list in
      let uu_min =
        List.concat_map (fun s -> List.map (fun (_, uu, _) -> uu) s.Claims.per_order) stats_list
        |> List.fold_left min max_int
      in
      let first = List.hd stats_list in
      let dmm_n =
        let b = Params.bound_of_rs rs ~k:first.Claims.k in
        b.Params.n_vertices
      in
      {
        m;
        k = first.Claims.k;
        r = first.Claims.r;
        n = dmm_n;
        samples;
        min_union = List.fold_left min max_int unions;
        mean_union =
          float_of_int (List.fold_left ( + ) 0 unions) /. float_of_int (List.length unions);
        chernoff_threshold = first.Claims.chernoff_threshold;
        min_unique_unique = uu_min;
        claim_threshold = first.Claims.claim_threshold;
        violations = List.length (List.filter (fun s -> not (Claims.holds s)) stats_list);
        failure_bound = first.Claims.failure_bound;
        consistent =
          (let bound = first.Claims.failure_bound in
           let sigma = sqrt (bound *. (1. -. bound) /. float_of_int samples) in
           let rate =
             float_of_int
               (List.length (List.filter (fun s -> not (Claims.holds s)) stats_list))
             /. float_of_int samples
           in
           rate <= bound +. (3. *. sigma) +. (1. /. float_of_int samples));
      })
    ms

let schema =
  [
    T.int_col ~width:6 "m";
    T.int_col ~width:5 "k";
    T.int_col ~width:5 "r";
    T.int_col ~width:7 "n";
    T.int_col ~width:8 ~text:false "samples";
    T.int_col ~width:8 ~header:"minU" "min_union";
    T.float_col ~width:9 ~digits:1 ~header:"meanU" "mean_union";
    T.float_col ~width:9 ~digits:1 ~header:"kr/3" "chernoff_threshold";
    T.int_col ~width:8 ~header:"min-uu" "min_unique_unique";
    T.float_col ~width:8 ~digits:1 ~header:"kr/4" "claim_threshold";
    T.int_col ~width:6 ~header:"viol" "violations";
    T.float_col ~width:9 ~digits:2 ~sci:true ~header:"2^-kr/10" "failure_bound";
    T.bool_col ~width:7 ~header:"consis" "consistent";
  ]

let to_row r =
  T.
    [
      Int r.m;
      Int r.k;
      Int r.r;
      Int r.n;
      Int r.samples;
      Int r.min_union;
      Float r.mean_union;
      Float r.chernoff_threshold;
      Int r.min_unique_unique;
      Float r.claim_threshold;
      Int r.violations;
      Float r.failure_bound;
      Bool r.consistent;
    ]

let preamble = [ ""; "T3. Claim 3.1 — unique-unique edges in maximal matchings of G ~ D_MM" ]

let experiment =
  R.make ~id:"claim31" ~title:"T3"
    ~doc:"T3: Claim 3.1 — unique-unique edges in maximal matchings of D_MM."
    ~params:
      (R.std_params
         [
           R.ints_param "m" ~doc:"RS parameters m." [ 10; 25; 50 ];
           R.int_param "samples" ~doc:"Samples per m." 20;
         ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("m", R.Vints [ 10; 25 ]); ("samples", R.Vint 5); ("seed", R.Vint 7) ]
    ~full:[ ("m", R.Vints [ 10; 25; 50 ]); ("samples", R.Vint 20); ("seed", R.Vint 7) ]
    ~smoke:[ ("m", R.Vints [ 5 ]); ("samples", R.Vint 3); ("seed", R.Vint 1) ]
    (fun ps ->
      compute ?jobs:(R.jobs ps) ~ms:(R.ints_value ps "m") ~samples:(R.int_value ps "samples")
        ~seed:(R.seed ps) ())
