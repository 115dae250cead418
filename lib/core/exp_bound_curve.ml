(* F7: Theorem 1 arithmetic vs upper bounds along the construction curve
   (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Rs = Rsgraph.Rs_graph
module Params = Rsgraph.Params

type row = {
  m : int;
  n_dmm : int;
  lower_bound_bits : float;
  sqrt_n : float;
  trivial_bits : float;
  two_round_bits : float;
}

let compute ~ms =
  List.map
    (fun m ->
      let rs = Rs.bipartite m in
      let bound = Params.bound_of_rs rs ~k:rs.Rs.t_count in
      {
        m;
        n_dmm = bound.Params.n_vertices;
        lower_bound_bits = bound.Params.bits_lower_bound;
        sqrt_n = sqrt (float_of_int bound.Params.n_vertices);
        trivial_bits = bound.Params.trivial_upper_bound;
        two_round_bits = bound.Params.two_round_upper_bound;
      })
    ms

(* Column order follows the classic printout: the two-round upper bound
   sits left of the trivial one. *)
let schema =
  [
    T.int_col ~width:6 "m";
    T.int_col ~width:9 ~header:"n" "n_dmm";
    T.float_col ~width:12 ~digits:2 ~header:"LB bits" "lower_bound_bits";
    T.float_col ~width:9 ~digits:1 ~header:"sqrt(n)" "sqrt_n";
    T.float_col ~width:14 ~digits:1 ~header:"2-round UB" "two_round_bits";
    T.float_col ~width:14 ~digits:1 ~header:"trivial UB" "trivial_bits";
  ]

let to_row r =
  T.
    [
      Int r.m;
      Int r.n_dmm;
      Float r.lower_bound_bits;
      Float r.sqrt_n;
      Float r.two_round_bits;
      Float r.trivial_bits;
    ]

let preamble = [ ""; "F7. Theorem 1 arithmetic vs upper bounds along the construction curve" ]

let experiment =
  R.make ~id:"bound-curve" ~title:"F7"
    ~doc:"F7: Theorem 1 arithmetic vs upper bounds along the curve."
    ~params:
      (R.std_params
         ~seed_doc:"Random seed (unused: the curve is closed-form)."
         [ R.ints_param "m" ~doc:"RS parameters m." [ 10; 25; 50; 100; 200; 400 ] ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("m", R.Vints [ 10; 50 ]) ]
    ~full:[ ("m", R.Vints [ 10; 25; 50; 100; 200; 400 ]) ]
    ~smoke:[ ("m", R.Vints [ 5; 20 ]) ]
    (fun ps -> compute ~ms:(R.ints_value ps "m"))
