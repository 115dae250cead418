(* The `simulate` endpoint: run a named sketching protocol on a generated
   graph and report its exact bit accounting.

   This is the served version of what the repo's experiments do in-process
   — the same protocol runs through the same [Sketchmodel.Rounds] engine
   with the same generators and the same coins, so a response's stats are
   {e exactly} the numbers an in-process run of the same catalogue entry
   produces; [test_server] pins that.

   Derivations are fixed and documented in the mli: the graph generator is
   [Prng.split (Prng.create seed) 1], the coins are
   [Public_coins.create seed]. Everything downstream is deterministic, so
   simulate responses are cacheable like experiment runs. *)

module T = Report.Tabular
module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds

type gspec =
  | Gnp of { n : int; p : float }
  | Path of int
  | Cycle of int
  | Complete of int
  | Star of int
  | Hyperk of { n : int; m : int; k : int }

type spec = { protocol : string; graph : gspec; seed : int }

let graph_rng seed = Stdx.Prng.split (Stdx.Prng.create seed) 1
let stream_rng seed = Stdx.Prng.split (Stdx.Prng.create seed) 2
let coins seed = Sketchmodel.Public_coins.create seed

let graph_of_spec { graph; seed; _ } =
  match graph with
  | Gnp { n; p } -> Dgraph.Gen.gnp (graph_rng seed) n p
  | Path n -> Dgraph.Gen.path n
  | Cycle n -> Dgraph.Gen.cycle n
  | Complete n -> Dgraph.Gen.complete n
  | Star n -> Dgraph.Gen.star n
  | Hyperk _ -> invalid_arg "Simulate.graph_of_spec: hyperk is not a graph"

(* Every gspec also names a hypergraph: [hyperk] directly (through the
   same derived generator as {!graph_of_spec} uses), the graph kinds via
   the 2-uniform embedding — so the hypergraph protocols run on every
   input the graph protocols do. *)
let hypergraph_of_spec ({ graph; seed; _ } as spec) =
  match graph with
  | Hyperk { n; m; k } -> Dgraph.Hgen.uniform_random (graph_rng seed) ~n ~m ~k
  | _ -> Dgraph.Hypergraph.of_graph (graph_of_spec spec)

let json_of_gspec = function
  | Gnp { n; p } -> T.Jobj [ ("kind", T.Jstr "gnp"); ("n", T.Jint n); ("p", T.Jfloat p) ]
  | Path n -> T.Jobj [ ("kind", T.Jstr "path"); ("n", T.Jint n) ]
  | Cycle n -> T.Jobj [ ("kind", T.Jstr "cycle"); ("n", T.Jint n) ]
  | Complete n -> T.Jobj [ ("kind", T.Jstr "complete"); ("n", T.Jint n) ]
  | Star n -> T.Jobj [ ("kind", T.Jstr "star"); ("n", T.Jint n) ]
  | Hyperk { n; m; k } ->
      T.Jobj [ ("kind", T.Jstr "hyperk"); ("n", T.Jint n); ("m", T.Jint m); ("k", T.Jint k) ]

let gspec_of_json j =
  let int k = match T.member k j with Some (T.Jint i) -> Some i | _ -> None in
  let num k =
    match T.member k j with
    | Some (T.Jfloat f) -> Some f
    | Some (T.Jint i) -> Some (float_of_int i)
    | _ -> None
  in
  match (T.member "kind" j, int "n") with
  | Some (T.Jstr "gnp"), Some n -> (
      match num "p" with
      | Some p when p >= 0. && p <= 1. && n >= 0 -> Ok (Gnp { n; p })
      | _ -> Error "gnp needs a probability field \"p\" in [0,1]")
  | Some (T.Jstr "path"), Some n -> Ok (Path n)
  | Some (T.Jstr "cycle"), Some n -> Ok (Cycle n)
  | Some (T.Jstr "complete"), Some n -> Ok (Complete n)
  | Some (T.Jstr "star"), Some n -> Ok (Star n)
  | Some (T.Jstr "hyperk"), Some n -> (
      match (int "m", int "k") with
      | Some m, Some k when n >= 0 && m >= 0 && k >= 2 && k <= n -> Ok (Hyperk { n; m; k })
      | Some _, Some _ -> Error "hyperk needs 2 <= k <= n and m >= 0"
      | _ -> Error "hyperk needs integer fields \"m\" and \"k\"")
  | Some (T.Jstr k), None -> Error (Printf.sprintf "graph kind %S needs an integer field \"n\"" k)
  | Some (T.Jstr k), _ -> Error (Printf.sprintf "unknown graph kind %S" k)
  | _ -> Error "graph spec needs a string field \"kind\""

let mm_output g m =
  let v = Dgraph.Matching.verify g m in
  T.Jobj
    [
      ("kind", T.Jstr "matching");
      ("size", T.Jint (Dgraph.Matching.size m));
      ("edges_exist", T.Jbool v.Dgraph.Matching.edges_exist);
      ("disjoint", T.Jbool v.Dgraph.Matching.disjoint);
      ("maximal", T.Jbool v.Dgraph.Matching.maximal);
    ]

let mis_output g s =
  let v = Dgraph.Mis.verify g s in
  T.Jobj
    [
      ("kind", T.Jstr "mis");
      ("size", T.Jint (List.length s));
      ("independent", T.Jbool v.Dgraph.Mis.independent);
      ("maximal", T.Jbool v.Dgraph.Mis.maximal);
    ]

(* A hypergraph matching arrives as pin sets (players cannot name frozen
   edge ids); map them back through [find_edge] for the id-based
   verdicts. An unmappable pin set is a fabricated edge. *)
let hyper_mm_output h pin_sets =
  let ids = List.map (fun pins -> Dgraph.Hypergraph.find_edge h pins) pin_sets in
  let all_exist = List.for_all Option.is_some ids in
  let known = List.filter_map Fun.id ids in
  let v = Dgraph.Hmatching.verify h known in
  T.Jobj
    [
      ("kind", T.Jstr "hyper-matching");
      ("size", T.Jint (List.length pin_sets));
      ("edges_exist", T.Jbool (all_exist && v.Dgraph.Hmatching.edges_exist));
      ("disjoint", T.Jbool v.Dgraph.Hmatching.disjoint);
      ("maximal", T.Jbool (all_exist && v.Dgraph.Hmatching.maximal));
    ]

let hyper_mis_output h s =
  let v = Dgraph.Hmis.verify h s in
  T.Jobj
    [
      ("kind", T.Jstr "hyper-mis");
      ("size", T.Jint (List.length s));
      ("independent", T.Jbool v.Dgraph.Hmis.independent);
      ("maximal", T.Jbool v.Dgraph.Hmis.maximal);
    ]

let jarr_of_ints a = T.Jarr (Array.to_list (Array.map (fun i -> T.Jint i) a))

(* The one stats shape of every round-based protocol: the cumulative
   figures plus the per-round curves. Nothing of the older per-engine
   shapes is lost: players = vertices, avg_bits = total_bits / players,
   round1_max/round2_max = round_max[0]/[1]. *)
let rounds_stats (s : Rounds.stats) =
  T.Jobj
    [
      ("rounds", T.Jint s.Rounds.rounds);
      ("max_bits", T.Jint s.Rounds.max_bits);
      ("total_bits", T.Jint s.Rounds.total_bits);
      ("broadcast_bits", T.Jint s.Rounds.broadcast_bits);
      ("round_max", jarr_of_ints s.Rounds.round_max);
      ("round_total", jarr_of_ints s.Rounds.round_total);
      ("round_broadcast", jarr_of_ints s.Rounds.round_broadcast);
    ]

(* Streaming passes are the cost axis, not rounds: report per-pass memory
   and matching growth alongside the peak. *)
let stream_stats (r : Multipass.Stream_matching.result) =
  let passes = r.Multipass.Stream_matching.passes in
  let per f = T.Jarr (List.map (fun p -> T.Jint (f p)) passes) in
  T.Jobj
    [
      ("passes", T.Jint (List.length passes));
      ("peak_memory_bits", T.Jint r.Multipass.Stream_matching.peak_memory_bits);
      ("converged", T.Jbool r.Multipass.Stream_matching.converged);
      ("pass_memory_bits", per (fun p -> p.Multipass.Stream_matching.memory_bits));
      ("pass_matching", per (fun p -> p.Multipass.Stream_matching.matching_size));
      ("pass_augmented", per (fun p -> p.Multipass.Stream_matching.augmented));
    ]

(* ------------------------------------------------------------------ *)
(* The protocol catalogue                                              *)

type input = Graph_input | Hypergraph_input
type cost = Per_round of Rounds.stats | Per_pass of Multipass.Stream_matching.result
type outcome = { vertices : int; edges : int; output : T.json; cost : cost }
type entry = { name : string; doc : string; input : input; run : spec -> outcome }

let on_graph name doc run_protocol verdict =
  let run spec =
    let g = graph_of_spec spec in
    let out, stats = run_protocol g (coins spec.seed) in
    {
      vertices = Dgraph.Graph.n g;
      edges = Dgraph.Graph.m g;
      output = verdict g out;
      cost = Per_round stats;
    }
  in
  { name; doc; input = Graph_input; run }

let on_hypergraph name doc run_protocol verdict =
  let run spec =
    let h = hypergraph_of_spec spec in
    let out, stats = run_protocol h (coins spec.seed) in
    {
      vertices = Dgraph.Hypergraph.n h;
      edges = Dgraph.Hypergraph.m h;
      output = verdict h out;
      cost = Per_round stats;
    }
  in
  { name; doc; input = Hypergraph_input; run }

let stream_matching spec =
  let g = graph_of_spec spec in
  let stream = Streams.Stream.shuffled (stream_rng spec.seed) g in
  let res = Multipass.Stream_matching.run ~eps:0.25 stream in
  {
    vertices = Dgraph.Graph.n g;
    edges = Dgraph.Graph.m g;
    output = mm_output g res.Multipass.Stream_matching.matching;
    cost = Per_pass res;
  }

let catalogue =
  [
    on_graph "trivial-mm" "full neighbourhoods, referee solves MM exactly (one round)"
      (Model.run Protocols.Trivial.mm) mm_output;
    on_graph "trivial-mis" "full neighbourhoods, referee solves MIS exactly (one round)"
      (Model.run Protocols.Trivial.mis) mis_output;
    on_graph "local-minima" "one-bit local-minima MIS attempt (one round; rarely maximal)"
      (Model.run Protocols.One_round_mis.local_minima) mis_output;
    on_graph "two-round-mm" "Lattanzi-style filtering MM (two rounds, O~(sqrt n))"
      (fun g coins -> Protocols.Two_round_mm.run g coins) mm_output;
    on_graph "two-round-mis" "random-prefix greedy MIS (two rounds, O~(sqrt n))"
      (fun g coins -> Protocols.Two_round_mis.run g coins) mis_output;
    on_hypergraph "hyper-trivial-mm"
      "full incident pin sets, referee solves hypergraph MM (one round)"
      Protocols.Hyper_mm.run_trivial hyper_mm_output;
    on_hypergraph "hyper-iterated-mm"
      "proposal rounds to a maximal hypergraph matching (multi-round)"
      Protocols.Hyper_mm.run_iterated hyper_mm_output;
    on_hypergraph "hyper-local-minima-mis"
      "one-bit hypergraph MIS attempt (one round; rarely maximal)"
      Protocols.Hyper_mis.run_local_minima hyper_mis_output;
    on_hypergraph "hyper-luby-mis" "Luby-style hypergraph MIS (multi-round, always maximal)"
      Protocols.Hyper_mis.run_luby hyper_mis_output;
    on_graph "prefix-mis-r4" "r-round prefix-greedy MIS at r=4 (multipass frontier)"
      (Multipass.Frontier.run ~rounds:4) mis_output;
    on_graph "luby-mis-random" "Luby MIS, fresh public-coin priorities (2 bits/player/round)"
      (Multipass.Luby.run Multipass.Luby.Random) mis_output;
    on_graph "luby-mis-degree" "Luby MIS, degree-biased priorities (degree prep round first)"
      (Multipass.Luby.run Multipass.Luby.Degree) mis_output;
    on_graph "luby-mis-index" "Luby MIS, fixed index priorities (deterministic rounds)"
      (Multipass.Luby.run Multipass.Luby.Index) mis_output;
    {
      name = "stream-matching";
      doc = "multi-pass semi-streaming (1+eps) matching at eps=1/4";
      input = Graph_input;
      run = stream_matching;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) catalogue

(* Graph protocols need a graph-shaped input; the hypergraph protocols
   accept everything (graph kinds embed 2-uniformly). The service checks
   this before computing, so a mismatch is a 400, not a crash. *)
let compatible ~protocol graph =
  match (find protocol, graph) with
  | Some { input = Hypergraph_input; _ }, _ -> true
  | Some { input = Graph_input; _ }, Hyperk _ | None, _ -> false
  | Some { input = Graph_input; _ }, _ -> true

let stats_json = function Per_round s -> rounds_stats s | Per_pass r -> stream_stats r

let run spec =
  let entry =
    match find spec.protocol with
    | Some e -> e
    | None -> invalid_arg (Printf.sprintf "Simulate.run: unknown protocol %S" spec.protocol)
  in
  if not (compatible ~protocol:spec.protocol spec.graph) then
    invalid_arg (Printf.sprintf "Simulate.run: protocol %S needs a graph input" spec.protocol);
  let o = entry.run spec in
  [
    ("protocol", T.Jstr spec.protocol);
    ("graph", json_of_gspec spec.graph);
    ("seed", T.Jint spec.seed);
    ("vertices", T.Jint o.vertices);
    ("edges", T.Jint o.edges);
    ("output", o.output);
    ("stats", stats_json o.cost);
  ]
