(* Catalogue lookup: run one experiment programmatically and render CSV.

   The experiment catalogue (lib/core/exp_all.ml) lists every DESIGN.md
   §4 table under a stable id. Here we look one up by id, override its
   parameters down to tiny sizes, and stream the resulting table through
   the CSV renderer — the same path `sketchlb run behrend --format csv`
   takes, minus the command line.

   Run with: dune exec examples/registry_csv.exe
   Pass `--trace out.json` for a Chrome trace_event export: the table
   computation is an [example.run-table] span with the experiment's own
   [exp.behrend] and [parallel.chunk] spans nested inside. *)

module R = Core.Exp_registry
module T = Report.Tabular

let trace_out =
  match Array.to_list Sys.argv with _ :: "--trace" :: path :: _ -> Some path | _ -> None

let stage name f = Stdx.Trace.span ("example." ^ name) f

let () =
  Report.Trace_export.with_file trace_out @@ fun () ->
  let id = "behrend" in
  let e =
    match Core.Exp_all.find id with
    | Some e -> e
    | None -> failwith ("experiment not registered: " ^ id)
  in
  Printf.printf "# %s — %s (%s)\n" (R.id e) (R.doc e) (R.title e);

  (* [R.smoke] is the experiment's own tiny-parameter set (the one the test
     suite uses); any `params` entry can be overridden the same way. *)
  let table = stage "run-table" (fun () -> R.table e (R.smoke e)) in
  T.emit ~format:T.Csv ~out:stdout table;

  (* The same table as JSON-lines, tagged with the experiment id — this is
     what `--format json` and BENCH_tables.json emit per row. *)
  print_newline ();
  Printf.printf "# same rows as tagged JSON-lines:\n";
  T.emit ~tag:("experiment", R.id e) ~format:T.Json ~out:stdout table
