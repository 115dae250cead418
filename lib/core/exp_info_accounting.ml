(* F5: exact Lemma 3.3-3.5 information accounting on micro D_MM
   instances (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry

type row = Accounting.report

let compute ~bits =
  List.concat_map
    (fun b ->
      [
        Accounting.analyze
          {
            Accounting.rs = Accounting.tiny_rs ();
            k = 2;
            bits = b;
            strategy = Accounting.Truncate;
            sigma_mode = Accounting.Enumerate_sigma;
          };
        Accounting.analyze
          {
            Accounting.rs = Accounting.micro_rs ();
            k = 2;
            bits = b;
            strategy = Accounting.Truncate;
            sigma_mode = Accounting.Fix_sigma;
          };
      ])
    bits

let schema =
  [
    T.int_col ~width:5 ~header:"b" "bits";
    T.str_col ~width:6 "sigma";
    T.int_col ~width:9 "outcomes";
    T.float_col ~width:7 ~digits:0 "kr";
    T.float_col ~width:9 ~digits:4 ~header:"I(M;Pi)" "info";
    T.float_col ~width:8 ~digits:3 ~header:"E|M^U|" "expected_recovered";
    T.float_col ~width:9 ~digits:4 ~header:"L3.3" "lemma33_slack";
    T.float_col ~width:9 ~digits:4 ~header:"L3.4" "lemma34_slack";
    T.float_col ~width:9 ~digits:4 ~header:"L3.5min" "lemma35_min_slack";
    T.bool_col ~width:6 "ok";
  ]

let to_row (r : Accounting.report) =
  T.
    [
      Int r.Accounting.spec_bits;
      Str (if r.Accounting.sigma_enumerated then "enum" else "fixed");
      Int r.Accounting.outcomes;
      Float r.Accounting.kr;
      Float r.Accounting.info;
      Float r.Accounting.expected_recovered;
      Float r.Accounting.lemma33_slack;
      Float r.Accounting.lemma34_slack;
      Float (Array.fold_left min infinity r.Accounting.lemma35_slacks);
      Bool (Accounting.all_inequalities_hold r);
    ]

let preamble = [ ""; "F5. Lemmas 3.3-3.5 — exact information accounting on micro D_MM instances" ]

let experiment =
  R.make ~id:"info-accounting" ~title:"F5"
    ~doc:"F5: exact Lemma 3.3-3.5 information accounting on micro instances."
    ~params:
      (R.std_params
         ~seed_doc:"Random seed (unused: the accounting enumerates exactly)."
         [ R.ints_param "bits" ~doc:"Per-player budgets in bits." [ 0; 2; 4; 6; 10 ] ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("bits", R.Vints [ 2; 6 ]) ]
    ~full:[ ("bits", R.Vints [ 0; 2; 4; 6; 10 ]) ]
    ~smoke:[ ("bits", R.Vints [ 2 ]) ]
    (fun ps -> compute ~bits:(R.ints_value ps "bits"))
