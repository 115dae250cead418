(* The experiment catalogue: every DESIGN.md §4 table, in the canonical
   `run_all` order. Because the list below is an explicit value, the
   linker can never drop an experiment module. *)

module T = Report.Tabular
module R = Exp_registry

let experiments : R.experiment list =
  [
    Exp_rs.experiment;
    Exp_behrend.experiment;
    Exp_claim31.experiment;
    Exp_budget_sweep.experiment;
    Exp_info_accounting.experiment;
    Exp_upper_bounds.experiment;
    Exp_coloring_contrast.experiment;
    Exp_bound_curve.experiment;
    Exp_reduction.experiment;
    Exp_bridge.experiment;
    Exp_approx_matching.experiment;
    Exp_k_sweep.experiment;
    Exp_streams.experiment;
    Exp_connectivity.experiment;
    Exp_rounds.experiment;
    Exp_packing.experiment;
    Exp_estimate_info.experiment;
    Exp_yao.experiment;
    Exp_bcc.experiment;
    Exp_hyper_mm.experiment;
    Exp_round_frontier.experiment;
    Exp_stream_matching.experiment;
    Exp_speedup.experiment;
  ]

let find id = List.find_opt (fun e -> R.id e = id) experiments

(* Run every experiment at its `all` (or `all --fast`) sizes, rendering
   through the chosen format. Text goes to [out] interleaved with wall-time
   lines, exactly as the classic `run_all` printed; machine formats keep
   [out] clean (rows only, each stamped with its experiment id) and push
   the timing lines to stderr. *)
let run_all ?(fast = false) ?jobs ?(format = T.Text) ?(out = stdout) () =
  let jobs =
    match jobs with Some j when j > 0 -> j | Some _ | None -> Stdx.Parallel.default_jobs ()
  in
  let progress fmt =
    Printf.ksprintf
      (fun s ->
        match format with
        | T.Text ->
            output_string out s;
            flush out
        | T.Csv | T.Json ->
            output_string stderr s;
            flush stderr)
      fmt
  in
  let total = ref 0. in
  List.iter
    (fun e ->
      let overrides = R.overrides_for ~fast e @ [ ("jobs", R.Vint jobs) ] in
      let wall =
        match format with
        | T.Text ->
            let (), wall =
              Stdx.Parallel.timed (fun () ->
                  output_string out (T.to_text (R.table e overrides)))
            in
            flush out;
            wall
        | T.Csv | T.Json ->
            let tbl, wall = Stdx.Parallel.timed (fun () -> R.table e overrides) in
            T.emit ~tag:("experiment", R.id e) ~format ~out tbl;
            flush out;
            wall
      in
      total := !total +. wall;
      progress "    [%s: %.2f s wall]\n" (R.title e) wall)
    experiments;
  progress "\nTotal wall-clock: %.2f s (jobs=%d; every table bit-identical at any job count)\n"
    !total jobs
