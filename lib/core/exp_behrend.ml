(* T2: Behrend 3-AP-free set sizes (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Params = Rsgraph.Params

type row = {
  m : int;
  greedy_size : int;
  behrend_size : int;
  best_size : int;
  exact_size : int option;
  rate : float;
}

(* Pure per-m computations: the per-m axis shards across domains. *)
let compute ?jobs ~ms () =
  Stdx.Parallel.map_list ?jobs
    (fun m ->
      {
        m;
        greedy_size = List.length (Rsgraph.Behrend.greedy m);
        behrend_size = List.length (Rsgraph.Behrend.behrend m);
        best_size = List.length (Rsgraph.Behrend.best m);
        exact_size = (if m <= 30 then Some (List.length (Rsgraph.Behrend.maximum m)) else None);
        rate = Params.behrend_rate m;
      })
    ms

let schema =
  [
    T.int_col ~width:8 "m";
    T.int_col ~width:8 "greedy";
    T.int_col ~width:9 "behrend";
    T.int_col ~width:8 "best";
    T.opt_col (T.int_col ~width:8 "exact");
    T.float_col ~width:8 ~digits:3 "rate";
  ]

let to_row r =
  T.
    [
      Int r.m;
      Int r.greedy_size;
      Int r.behrend_size;
      Int r.best_size;
      Opt (Option.map (fun e -> Int e) r.exact_size);
      Float r.rate;
    ]

let preamble = [ ""; "T2. Behrend's theorem — 3-AP-free subsets of [1, m]" ]

let experiment =
  R.make ~id:"behrend" ~title:"T2" ~doc:"T2: 3-AP-free set sizes (greedy vs Behrend vs exact)."
    ~params:
      (R.std_params
         ~seed_doc:"Random seed (unused: the constructions are deterministic)."
         [ R.ints_param "m" ~doc:"Set range bounds m." [ 10; 30; 100; 300; 1000; 3000; 10000 ] ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("m", R.Vints [ 10; 30; 100 ]) ]
    ~full:[ ("m", R.Vints [ 10; 30; 100; 300; 1000; 3000; 10000 ]) ]
    ~smoke:[ ("m", R.Vints [ 10; 25 ]) ]
    (fun ps -> compute ?jobs:(R.jobs ps) ~ms:(R.ints_value ps "m") ())
