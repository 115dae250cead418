(* T10: dynamic streams = linear sketches, bit for bit (DESIGN.md §4). *)

module T = Report.Tabular
module R = Exp_registry
module Graph = Dgraph.Graph
module Public_coins = Sketchmodel.Public_coins

type row = {
  sn : int;
  decoys : int;
  events : int;
  forest_ok : bool;
  messages_identical : bool;
  greedy_mm_ok : bool;
}

let compute ~ns ~seed =
  List.map
    (fun n ->
      let rng = Stdx.Prng.create (Stdx.Hashing.mix64 (seed + (3 * n))) in
      let g = Dgraph.Gen.gnp rng n (6.0 /. float_of_int n) in
      let decoys = Graph.m g in
      let stream = Streams.Stream.with_decoys rng g ~decoys in
      let coins = Public_coins.create (Stdx.Hashing.mix64 (seed * 13 + n)) in
      let proc = Streams.Sketch_stream.create ~n coins in
      Streams.Sketch_stream.feed_all proc stream;
      let forest = Streams.Sketch_stream.spanning_forest proc in
      let insertion_only = Streams.Stream.shuffled rng g in
      let mm = Streams.Insertion_greedy.mm_of_stream insertion_only in
      {
        sn = n;
        decoys;
        events = Streams.Stream.length stream;
        forest_ok = Dgraph.Components.is_spanning_forest g forest;
        messages_identical = Streams.Sketch_stream.messages_equal_distributed proc g;
        greedy_mm_ok = Dgraph.Matching.is_maximal g mm;
      })
    ns

let schema =
  [
    T.int_col ~width:7 ~header:"n" "n";
    T.int_col ~width:8 "decoys";
    T.int_col ~width:8 "events";
    T.bool_col ~width:10 ~header:"forest ok" "forest_ok";
    T.bool_col ~width:11 ~header:"bits equal" "messages_identical";
    T.bool_col ~width:11 ~header:"greedy mm" "greedy_mm_ok";
  ]

let to_row r =
  T.
    [
      Int r.sn;
      Int r.decoys;
      Int r.events;
      Bool r.forest_ok;
      Bool r.messages_identical;
      Bool r.greedy_mm_ok;
    ]

let preamble =
  [ ""; "T10. Dynamic streams = linear sketches (insert/delete decoys, bitwise equality)" ]

let experiment =
  R.make ~id:"streams" ~title:"T10" ~doc:"T10: dynamic streams = linear sketches, bit for bit."
    ~params:(R.std_params [ R.ints_param "n" ~doc:"Graph sizes n." [ 24; 48; 96 ] ])
    ~schema ~to_row ~preamble:(fun _ _ -> preamble)
    ~fast:[ ("n", R.Vints [ 24 ]); ("seed", R.Vint 41) ]
    ~full:[ ("n", R.Vints [ 24; 48; 96 ]); ("seed", R.Vint 41) ]
    ~smoke:[ ("n", R.Vints [ 16 ]); ("seed", R.Vint 41) ]
    (fun ps -> compute ~ns:(R.ints_value ps "n") ~seed:(R.seed ps))
