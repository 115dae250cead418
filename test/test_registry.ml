(* Tests for the experiment catalogue: ids are unique and resolve,
   parameter merging rejects typos, and every experiment runs at its
   smoke sizes into a table that type-checks against its schema and
   survives the JSON round-trip. *)

module R = Core.Exp_registry
module T = Report.Tabular

let checkb = Alcotest.(check bool)

let test_catalogue () =
  let exps = Core.Exp_all.experiments in
  let ids = List.map R.id exps in
  checkb "ids are unique" true (List.length (List.sort_uniq compare ids) = List.length ids);
  List.iter
    (fun e ->
      match Core.Exp_all.find (R.id e) with
      | Some e' -> checkb (R.id e ^ " resolves to itself") true (R.id e' = R.id e)
      | None -> Alcotest.failf "find %S returned None" (R.id e))
    exps;
  checkb "unknown id is None" true (Core.Exp_all.find "no-such-experiment" = None)

let test_param_merge () =
  let e = List.hd Core.Exp_all.experiments in
  checkb "unknown override raises Unknown_param" true
    (match R.merge (R.params e) [ ("no-such-param", R.Vint 1) ] with
    | _ -> false
    | exception R.Unknown_param _ -> true);
  (* Every experiment exposes the uniform seed/jobs knobs. *)
  List.iter
    (fun e ->
      let names = List.map (fun (p : R.param) -> p.R.name) (R.params e) in
      checkb (R.id e ^ " has seed param") true (List.mem "seed" names);
      checkb (R.id e ^ " has jobs param") true (List.mem "jobs" names))
    Core.Exp_all.experiments

(* Run each experiment at its tiny smoke parameters (pinned to one worker
   domain) and check the table against its schema. *)
let smoke_table e = R.table e (R.smoke e @ [ ("jobs", R.Vint 1) ])

let test_smoke_tables () =
  List.iter
    (fun e ->
      let tbl = smoke_table e in
      T.validate tbl;
      checkb (R.id e ^ " produces rows at smoke sizes") true (tbl.T.rows <> []))
    Core.Exp_all.experiments

let test_json_round_trip () =
  (* Render every smoke row as tagged JSON, parse it back, map it onto the
     schema: identical values. Rows with non-finite floats are excluded —
     they serialize as null by design. *)
  let finite = function T.Float f -> Float.is_finite f | _ -> true in
  List.iter
    (fun e ->
      let tbl = smoke_table e in
      List.iter
        (fun row ->
          if List.for_all finite row then
            let line = T.json_of_row ~tag:("experiment", R.id e) tbl.T.schema row in
            checkb
              (R.id e ^ " row survives the JSON round-trip")
              true
              (T.row_of_json tbl.T.schema (T.json_of_string line) = row))
        tbl.T.rows)
    Core.Exp_all.experiments

let () =
  Alcotest.run "registry"
    [
      ( "catalogue",
        [
          Alcotest.test_case "complete and unique" `Quick test_catalogue;
          Alcotest.test_case "param merge" `Quick test_param_merge;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "smoke tables validate" `Quick test_smoke_tables;
          Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
        ] );
    ]
