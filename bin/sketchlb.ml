(* Command-line driver, generated from the experiment registry: one
   subcommand per registered experiment, its flags derived from the
   experiment's parameter spec, plus registry-wide `run`, `list` and
   `all` commands. Every command takes `--format text|csv|json` and
   `--out FILE`. *)

open Cmdliner
module T = Report.Tabular
module R = Core.Exp_registry

let format_arg =
  let formats = [ ("text", T.Text); ("csv", T.Csv); ("json", T.Json) ] in
  Arg.(
    value
    & opt (enum formats) T.Text
    & info [ "format" ] ~doc:"Output format: $(b,text), $(b,csv) or $(b,json) (JSON-lines)."
        ~docv:"FORMAT")

let out_arg =
  Arg.(
    value
    & opt string "-"
    & info [ "out" ] ~doc:"Write rows to $(docv) instead of stdout (\"-\" = stdout)." ~docv:"FILE")

(* Every command takes --trace FILE: enable Stdx.Trace for the whole run
   and write a Chrome trace_event JSON file (load it in ui.perfetto.dev
   or chrome://tracing). Tracing only writes to side buffers, so table
   output is byte-identical with or without it (pinned by test_trace). *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:"Record a Chrome trace_event profile of the run to $(docv) (Perfetto-loadable)."
        ~docv:"FILE")

(* SIGINT/SIGTERM during a long run (`all` especially) must not truncate a
   half-written --out file: the handler raises, [with_out]'s protector
   closes (= flushes) the channel with every completed row intact, and the
   driver exits with the conventional 128+signal code. *)
exception Interrupted of int

let () =
  let graceful signal = Sys.set_signal signal (Sys.Signal_handle (fun _ -> raise (Interrupted signal))) in
  graceful Sys.sigint;
  graceful Sys.sigterm

let with_out path f =
  if path = "-" then f stdout
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  end

(* A cmdliner term evaluating to parameter overrides, one flag per spec
   entry; defaults come from the spec itself, so the term only records
   flags the user actually passed. *)
let term_of_params (specs : R.param list) : R.params Term.t =
  List.fold_left
    (fun acc (p : R.param) ->
      match p.R.default with
      | R.Vint d ->
          let arg = Arg.(value & opt int d & info p.R.keys ~doc:p.R.doc ~docv:"INT") in
          Term.(const (fun ps v -> (p.R.name, R.Vint v) :: ps) $ acc $ arg)
      | R.Vints d ->
          let arg = Arg.(value & opt (list int) d & info p.R.keys ~doc:p.R.doc ~docv:"INTS") in
          Term.(const (fun ps v -> (p.R.name, R.Vints v) :: ps) $ acc $ arg))
    (Term.const []) specs

let emit_experiment e overrides format path =
  with_out path (fun out -> T.emit ~format ~out (R.table e overrides))

(* One subcommand per experiment, flags straight from its param spec. *)
let exp_cmd e =
  let run overrides format path trace =
    Report.Trace_export.with_file trace (fun () -> emit_experiment e overrides format path)
  in
  Cmd.v
    (Cmd.info (R.id e) ~doc:(R.doc e))
    Term.(const run $ term_of_params (R.params e) $ format_arg $ out_arg $ trace_arg)

(* `run ID`: look an experiment up by id and run it at spec defaults,
   with only the uniform seed/jobs knobs (plus --smoke) exposed. *)
let run_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~doc:"Experiment id (see `list`)." ~docv:"ID")
  in
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny sizes (the registry test's parameters).")
  in
  let seed_arg =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Random seed override." ~docv:"INT")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~doc:"Worker domains for trial sharding." ~docv:"INT")
  in
  let run id smoke seed jobs format path trace =
    match Core.Exp_all.find id with
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S; `sketchlb list` shows the catalogue" id )
    | Some e ->
        (* Merge keeps the first binding per name, so explicit --seed/--jobs
           must precede the --smoke defaults to win over them. *)
        let overrides =
          (match seed with Some s -> [ ("seed", R.Vint s) ] | None -> [])
          @ (match jobs with Some j -> [ ("jobs", R.Vint j) ] | None -> [])
          @ (if smoke then R.smoke e else [])
        in
        Report.Trace_export.with_file trace (fun () -> emit_experiment e overrides format path);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment by id at its default parameters.")
    Term.(
      ret (const run $ id_arg $ smoke_arg $ seed_arg $ jobs_arg $ format_arg $ out_arg $ trace_arg))

(* `list`: the registry catalogue. *)
let list_cmd =
  let run () =
    List.iter
      (fun e -> Printf.printf "%-18s %-4s %s\n" (R.id e) (R.title e) (R.doc e))
      Core.Exp_all.experiments
  in
  Cmd.v (Cmd.info "list" ~doc:"List every registered experiment id.") Term.(const run $ const ())

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ]
        ~doc:"Worker domains for trial sharding (0 = Domain.recommended_domain_count)."
        ~docv:"INT")

let jobs_opt j = if j <= 0 then None else Some j

let all_cmd =
  let run fast jobs format path trace =
    Report.Trace_export.with_file trace (fun () ->
        with_out path (fun out -> Core.Exp_all.run_all ~fast ?jobs:(jobs_opt jobs) ~format ~out ()))
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment at default sizes.")
    Term.(
      const run
      $ Arg.(value & flag & info [ "fast" ] ~doc:"Shrunk sizes (for smoke tests).")
      $ jobs_arg $ format_arg $ out_arg $ trace_arg)

let () =
  let doc =
    "Reproduction harness for 'Lower Bounds for Distributed Sketching of Maximal Matchings \
     and Maximal Independent Sets' (PODC 2020)."
  in
  let info = Cmd.info "sketchlb" ~version:Stdx.Version.current ~doc in
  let group =
    Cmd.group info
      (List.map exp_cmd Core.Exp_all.experiments @ [ run_cmd; list_cmd; all_cmd ])
  in
  (* ~catch:false so [Interrupted] reaches us instead of cmdliner's
     catch-all backtrace printer; by now every [with_out] protector has
     already flushed and closed its partial output file. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Interrupted signal ->
      let name = if signal = Sys.sigterm then "SIGTERM" else "SIGINT" in
      Printf.eprintf "sketchlb: interrupted by %s; partial output flushed\n%!" name;
      exit (128 + if signal = Sys.sigterm then 15 else 2)
