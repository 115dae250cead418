(* F11: ablation decoupling k from t at fixed m (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Rs = Rsgraph.Rs_graph
module Params = Rsgraph.Params

type row = {
  kk : int;
  kt_ratio : float;
  predicted : float;
  threshold_bits : int option;
}

let compute ~m ~ks ~budgets ~trials ~seed =
  let rs = Rs.bipartite m in
  List.map
    (fun k ->
      let sweep = Exp_budget_sweep.compute ~m ~k ~budgets ~trials ~seed () in
      let uniform_rows =
        List.filter (fun r -> r.Exp_budget_sweep.strategy = "uniform") sweep.Exp_budget_sweep.rows
        |> List.sort (fun a b ->
               compare a.Exp_budget_sweep.budget_bits b.Exp_budget_sweep.budget_bits)
      in
      let threshold =
        List.find_opt (fun r -> r.Exp_budget_sweep.relaxed_success >= 0.5) uniform_rows
        |> Option.map (fun r -> r.Exp_budget_sweep.budget_bits)
      in
      let bound = Params.bound_of_rs rs ~k in
      {
        kk = k;
        kt_ratio = float_of_int k /. float_of_int rs.Rs.t_count;
        predicted = bound.Params.bits_lower_bound;
        threshold_bits = threshold;
      })
    ks

let schema =
  [
    T.int_col ~width:6 ~header:"k" "k";
    T.float_col ~width:8 ~digits:2 ~header:"k/t" "kt_ratio";
    T.float_col ~width:12 ~digits:4 ~header:"LB bits" "predicted";
    T.opt_col ~none:">max tested" (T.int_col ~width:16 ~header:"threshold bits" "threshold_bits");
  ]

let to_row r =
  T.
    [
      Int r.kk;
      Float r.kt_ratio;
      Float r.predicted;
      Opt (Option.map (fun b -> Int b) r.threshold_bits);
    ]

let preamble =
  [
    "";
    "F11. Ablation — decoupling k from t (m fixed). The information bound grows";
    "     linearly with k while the natural protocol's per-player threshold is";
    "     k-independent: the lower bound is tightest at the paper's choice k = t.";
  ]

let experiment =
  R.make ~id:"k-sweep" ~title:"F11" ~doc:"F11: ablation decoupling k from t."
    ~params:
      (R.std_params
         [
           R.int_param "m" ~doc:"RS parameter m." 25;
           R.ints_param "k" ~doc:"Values of k." [ 3; 6; 12; 25 ];
           R.ints_param "budgets" ~doc:"Budgets in bits." [ 4; 8; 16; 32; 64; 128 ];
           R.int_param "trials" ~doc:"Trials per configuration." 8;
         ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("k", R.Vints [ 5; 25 ]); ("trials", R.Vint 3); ("seed", R.Vint 37) ]
    ~full:[ ("k", R.Vints [ 3; 6; 12; 25 ]); ("trials", R.Vint 8); ("seed", R.Vint 37) ]
    ~smoke:
      [ ("m", R.Vint 4); ("k", R.Vints [ 2 ]); ("budgets", R.Vints [ 8 ]); ("trials", R.Vint 2) ]
    (fun ps ->
      compute ~m:(R.int_value ps "m") ~ks:(R.ints_value ps "k")
        ~budgets:(R.ints_value ps "budgets") ~trials:(R.int_value ps "trials") ~seed:(R.seed ps))
