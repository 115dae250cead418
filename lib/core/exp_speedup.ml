(* P1: wall-clock of the deterministic trial engine (claim31) at
   1, 2, 4, ... domains, with a bit-identity check against the
   sequential run (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry

type row = { pjobs : int; wall_s : float; speedup : float; identical : bool }

let compute ?jobs ~m ~samples ~seed () =
  let max_jobs =
    match jobs with Some j when j > 0 -> j | Some _ | None -> Stdx.Parallel.default_jobs ()
  in
  let run j =
    Stdx.Parallel.timed (fun () -> Exp_claim31.compute ~jobs:j ~ms:[ m ] ~samples ~seed ())
  in
  let reference, baseline_wall = run 1 in
  let job_counts =
    List.sort_uniq compare (List.filter (fun j -> j <= max_jobs) [ 1; 2; 4; max_jobs ])
  in
  List.map
    (fun j ->
      let rows, wall = if j = 1 then (reference, baseline_wall) else run j in
      {
        pjobs = j;
        wall_s = wall;
        speedup = baseline_wall /. wall;
        identical = rows = reference;
      })
    job_counts

let schema =
  [
    T.int_col ~width:6 ~header:"jobs" "jobs";
    T.float_col ~width:10 ~digits:3 ~header:"wall (s)" "wall_s";
    T.float_col ~width:9 ~digits:2 "speedup";
    T.bool_col ~width:10 "identical";
  ]

let to_row r = T.[ Int r.pjobs; Float r.wall_s; Float r.speedup; Bool r.identical ]

let preamble_of ~m ~samples =
  [
    "";
    Printf.sprintf
      "P1. Deterministic trial engine — claim31 (m=%d, %d samples) sharded over domains" m
      samples;
    Printf.sprintf "    %d cores recommended by the runtime; identical = rows bit-equal to jobs=1"
      (Stdx.Parallel.default_jobs ());
  ]

let experiment =
  R.make ~id:"speedup" ~title:"P1"
    ~doc:
      "P1: wall-clock of the deterministic trial engine (claim31) at 1, 2, 4, ... domains, \
       with a bit-identity check against the sequential run."
    ~params:
      (R.std_params
         [
           R.int_param "m" ~doc:"RS parameter m." 25;
           R.int_param "samples" ~doc:"Samples." 2000;
         ])
    ~schema ~to_row
    ~preamble:(fun ps _ -> preamble_of ~m:(R.int_value ps "m") ~samples:(R.int_value ps "samples"))
    ~fast:[ ("m", R.Vint 10); ("samples", R.Vint 8); ("seed", R.Vint 71) ]
    ~full:[ ("m", R.Vint 25); ("samples", R.Vint 40); ("seed", R.Vint 71) ]
    ~smoke:[ ("m", R.Vint 4); ("samples", R.Vint 4); ("jobs", R.Vint 2) ]
    (fun ps ->
      compute ?jobs:(R.jobs ps) ~m:(R.int_value ps "m") ~samples:(R.int_value ps "samples")
        ~seed:(R.seed ps) ())
