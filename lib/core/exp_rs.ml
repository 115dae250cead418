(* T1: RS graph parameter table (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Rs = Rsgraph.Rs_graph
module Params = Rsgraph.Params

type row = { row : Params.rs_row; verified : bool }

(* Each m is an independent pure construction, so the per-m axis shards
   across domains; map_list preserves order, so output is job-count
   independent. *)
let compute ?jobs ~ms () =
  Stdx.Parallel.map_list ?jobs
    (fun m ->
      let rs = Rs.bipartite m in
      { row = Params.rs_row m; verified = Rsgraph.Verify.is_valid_rs rs })
    ms

let schema =
  [
    T.int_col ~width:8 "m";
    T.int_col ~width:8 ~header:"N" "n";
    T.int_col ~width:8 "r";
    T.int_col ~width:8 "t";
    T.int_col ~width:10 "edges";
    T.float_col ~width:10 ~digits:5 "density";
    T.float_col ~width:10 ~digits:4 ~header:"r/N" "r_over_n";
    T.bool_col ~width:9 "verified";
  ]

let to_row { row; verified } =
  T.
    [
      Int row.Params.m;
      Int row.Params.big_n;
      Int row.Params.r;
      Int row.Params.t;
      Int row.Params.edges;
      Float row.Params.density;
      Float row.Params.r_over_n;
      Bool verified;
    ]

let preamble = [ "T1. Proposition 2.1 — (r,t)-RS graphs from Behrend sets (ours: N=5m, t=m)" ]

let experiment =
  R.make ~id:"rs-table" ~title:"T1" ~doc:"T1: Proposition 2.1 RS-graph parameter table (verified)."
    ~params:
      (R.std_params
         ~seed_doc:"Random seed (unused: the construction is deterministic)."
         [ R.ints_param "m" ~doc:"Construction parameters m." [ 5; 10; 25; 50; 100; 200 ] ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("m", R.Vints [ 5; 10; 25 ]) ]
    ~full:[ ("m", R.Vints [ 5; 10; 25; 50; 100; 200 ]) ]
    ~smoke:[ ("m", R.Vints [ 3; 6 ]) ]
    (fun ps -> compute ?jobs:(R.jobs ps) ~ms:(R.ints_value ps "m") ())
