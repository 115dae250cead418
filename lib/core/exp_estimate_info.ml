(* F5b: plug-in mutual-information estimates from samples vs the exact
   enumeration of the micro instance (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph
module Model = Sketchmodel.Model
module Rs = Rsgraph.Rs_graph

type row = {
  ebits : int;
  samples : int;
  exact_info : float;
  estimated_info : float;
  abs_error : float;
}

let compute ?jobs ~bits ~samples ~seed () =
  List.map
    (fun b ->
      let spec =
        {
          Accounting.rs = Accounting.micro_rs ();
          k = 2;
          bits = b;
          strategy = Accounting.Truncate;
          sigma_mode = Accounting.Fix_sigma;
        }
      in
      let exact = Accounting.analyze spec in
      (* Re-derive the joint (M, Pi, J) samples by drawing outcomes of the
         same micro space through the deterministic constructor. *)
      let rs = Accounting.micro_rs () in
      let edge_count = Graph.m rs.Rs.graph in
      let nn = Rsgraph.Rs_graph.n rs in
      let n = nn - (2 * rs.Rs.r) + (2 * rs.Rs.r * spec.Accounting.k) in
      let sigma = Array.init n (fun v -> v) in
      let root = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + b)) in
      let draw i =
        (* Per-sample seeding scheme: sample [i] is a pure function of
           [(seed, b, i)], independent of job count and worker order. *)
        let rng = Stdx.Prng.split root i in
        let j = Stdx.Prng.int rng rs.Rs.t_count in
        let kept =
          Array.init spec.Accounting.k (fun _ ->
              Array.init edge_count (fun _ -> Stdx.Prng.bool rng))
        in
        let dmm = Hard_dist.make rs ~k:spec.Accounting.k ~j_star:j ~sigma ~kept in
        let views = Hard_dist.augmented_views dmm in
        let msgs =
          Array.to_list views
          |> List.map (fun view ->
                 let bitmap = Stdx.Bitset.create (max 1 b) in
                 Array.iter
                   (fun u -> if u < b then Stdx.Bitset.add bitmap u)
                   view.Model.neighbors;
                 String.concat "," (List.map string_of_int (Stdx.Bitset.to_list bitmap)))
          |> String.concat "|"
        in
        let m_code =
          List.init spec.Accounting.k (fun i ->
              Array.to_list (Hard_dist.kept_vector dmm ~copy:i ~j)
              |> List.fold_left (fun acc kept_bit -> (acc * 2) + if kept_bit then 1 else 0) 0)
        in
        (m_code, (msgs, j))
      in
      let joint = Stdx.Parallel.init ?jobs samples draw in
      let estimated = Infotheory.Estimate.conditional_mutual_information_plugin joint in
      {
        ebits = b;
        samples;
        exact_info = exact.Accounting.info;
        estimated_info = estimated;
        abs_error = abs_float (estimated -. exact.Accounting.info);
      })
    bits

let schema =
  [
    T.int_col ~width:5 ~header:"b" "bits";
    T.int_col ~width:9 "samples";
    T.float_col ~width:11 ~digits:4 ~header:"exact I" "exact_info";
    T.float_col ~width:12 ~digits:4 ~header:"estimated I" "estimated_info";
    T.float_col ~width:10 ~digits:4 ~header:"abs error" "abs_error";
  ]

let to_row r =
  T.[ Int r.ebits; Int r.samples; Float r.exact_info; Float r.estimated_info; Float r.abs_error ]

let preamble =
  [ ""; "F5b. Plug-in MI estimates from samples vs exact enumeration (micro instance)" ]

let experiment =
  R.make ~id:"estimate-info" ~title:"F5b" ~doc:"F5b: sampled MI estimates vs exact enumeration."
    ~params:
      (R.std_params
         [
           R.ints_param "bits" ~doc:"Budgets in bits." [ 6; 10; 14 ];
           R.int_param "samples" ~doc:"Samples." 6000;
         ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("bits", R.Vints [ 10 ]); ("samples", R.Vint 1500); ("seed", R.Vint 59) ]
    ~full:[ ("bits", R.Vints [ 6; 10; 14 ]); ("samples", R.Vint 6000); ("seed", R.Vint 59) ]
    ~smoke:[ ("bits", R.Vints [ 3 ]); ("samples", R.Vint 40) ]
    (fun ps ->
      compute ?jobs:(R.jobs ps) ~bits:(R.ints_value ps "bits")
        ~samples:(R.int_value ps "samples") ~seed:(R.seed ps) ())
