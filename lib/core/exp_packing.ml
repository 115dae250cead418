(* T2b: greedy random induced-matching packing vs the Behrend RS
   construction at equal (N, r) (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Params = Rsgraph.Params

type row = { pn : int; pr : int; packed_t : int; behrend_t : int; tries : int }

(* The greedy packing loop is inherently sequential (every try depends on
   the matchings accepted so far), so the parallel axis is the independent
   per-m packings; each m re-derives its generator from the seed alone. *)
let compute ?jobs ~ms ~tries ~seed () =
  Stdx.Parallel.map_list ?jobs
    (fun m ->
      let row = Params.rs_row m in
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + m)) in
      let packed_t =
        Rsgraph.Packed.achieved_t rng ~big_n:row.Params.big_n ~r:row.Params.r ~tries
      in
      {
        pn = row.Params.big_n;
        pr = row.Params.r;
        packed_t;
        behrend_t = row.Params.t;
        tries;
      })
    ms

let schema =
  [
    T.int_col ~width:7 ~header:"N" "n";
    T.int_col ~width:6 "r";
    T.int_col ~width:10 ~header:"packed t" "packed_t";
    T.int_col ~width:11 ~header:"behrend t" "behrend_t";
    T.int_col ~width:8 "tries";
  ]

let to_row r = T.[ Int r.pn; Int r.pr; Int r.packed_t; Int r.behrend_t; Int r.tries ]

let preamble =
  [ ""; "T2b. RS families — greedy random packing vs the Behrend construction (equal N, r)" ]

let experiment =
  R.make ~id:"packing" ~title:"T2b"
    ~doc:"T2b: random induced-matching packing vs Behrend RS graphs."
    ~params:
      (R.std_params
         [
           R.ints_param "m" ~doc:"RS parameters m." [ 5; 10; 25; 50 ];
           R.int_param "tries" ~doc:"Packing attempts." 3000;
         ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("m", R.Vints [ 5; 10 ]); ("tries", R.Vint 500); ("seed", R.Vint 53) ]
    ~full:[ ("m", R.Vints [ 5; 10; 25; 50 ]); ("tries", R.Vint 3000); ("seed", R.Vint 53) ]
    ~smoke:[ ("m", R.Vints [ 4 ]); ("tries", R.Vint 120) ]
    (fun ps ->
      compute ?jobs:(R.jobs ps) ~ms:(R.ints_value ps "m") ~tries:(R.int_value ps "tries")
        ~seed:(R.seed ps) ())
