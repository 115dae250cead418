(* Per-layer probes: timed calls into each module's public functions, from
   outside, on inputs derived from the workload seed. Each call runs
   inside a [bench.<layer>] span of the benchmark's own, so a traced run
   attributes the library's existing spans beneath it. *)

open Util
module G = Dgraph.Graph
module L0 = Linear_sketch.L0_sampler
module Sr = Linear_sketch.Sparse_recovery
module Acc = Core.Accounting

(* Median seconds per call of [f], over at least [reps] timings and about
   [budget] seconds. The clock ticks in microseconds, so calls shorter
   than a millisecond are timed in batches that last about one. *)
let per_call ?(reps = 5) ?(budget = 0.1) name f =
  let once = snd (timed f) in
  let k =
    if once >= 1e-3 then 1 else min 100_000 (1 + int_of_float (1e-3 /. Float.max once 1e-7))
  in
  let s = Samples.create () in
  let t0 = now () in
  while s.Samples.n < reps || now () -. t0 < budget do
    let _, t =
      timed (fun () ->
          Stdx.Trace.span ("bench." ^ name) (fun () ->
              for _ = 1 to k do
                f ()
              done))
    in
    Samples.add s (t /. float_of_int k)
  done;
  median (Samples.to_array s)

let ms name f = (name, 1e3 *. per_call name f)
let us name f = (name, 1e6 *. per_call name f)

(* [per_item scale name n f]: [f] handles [n] items per call; the
   per-item time, in units of [1 / scale] seconds. *)
let per_item scale name n f = (name, scale *. per_call name f /. float_of_int n)

(* Compute layers: sketches, accounting, coloring, D_MM sampling, graph
   freeze, the referee engines and the verdict checks. Also returns the
   scratch-arena reallocations over repeated forest runs after the first,
   for the report: 0 while the arenas are reused as designed. *)
let compute ~seed =
  let rng k = Stdx.Prng.split (Stdx.Prng.create seed) k in
  let coins = Sketchmodel.Public_coins.create seed in
  let g48 = Dgraph.Gen.gnp (rng 1) 48 0.2 in
  let g128 = Dgraph.Gen.gnp (rng 2) 128 0.25 in
  let g256 = Dgraph.Gen.gnp (rng 3) 256 0.5 in
  let g1024 = Dgraph.Gen.gnp (rng 4) 1024 0.05 in
  let rs25 = Rsgraph.Rs_graph.bipartite 25 in
  let dmm = Core.Hard_dist.sample rs25 (rng 5) in
  let h = Dgraph.Hgen.uniform_random (rng 6) ~n:400 ~m:300 ~k:3 in
  (* One L0 sampler fed 10k updates; a 6-sparse recovery structure. *)
  let universe = 128 * 128 in
  let l0 = L0.create (L0.make_params (rng 7) ~universe ()) in
  let coords = Array.init 10_000 (fun i -> i * 7919 mod universe) in
  let l0_update =
    per_item 1e9 "l0.update_ns" (Array.length coords) (fun () ->
        Array.iter (fun c -> L0.update l0 c 1) coords)
  in
  Ledger.check "l0: sampler decodes a coordinate" (L0.decode l0 <> None);
  let sr = Sr.create (Sr.make_params (rng 8) ~universe ~buckets:16 ~reps:3) in
  Array.iteri (fun i c -> if i < 6 then Sr.update sr c (i + 1)) coords;
  Ledger.check "sparse recovery: a 6-sparse vector decodes"
    (match Sr.decode sr with Some l -> List.length l = 6 | None -> false);
  (* Arena reallocations over repeated forest runs, after the first. *)
  let forest () = ignore (Agm.Spanning_forest.run g128 coins) in
  forest ();
  let reallocs () = (Stdx.Scratch.stats (Stdx.Scratch.domain ())).Stdx.Scratch.reallocs in
  let r0 = reallocs () in
  let forest_ms = ms "agm.spanning_forest_ms" forest in
  let forest_reallocs = reallocs () - r0 in
  (* The info-accounting table's two instances: sigma enumerated on the
     tiny RS graph, fixed on the micro one. *)
  let acc mode =
    let rs = if mode = Acc.Enumerate_sigma then Acc.tiny_rs () else Acc.micro_rs () in
    Acc.analyze { Acc.rs; k = 2; bits = 2; strategy = Acc.Truncate; sigma_mode = mode }
  in
  List.iter
    (fun (what, mode) ->
      Ledger.check ("accounting: inequalities hold, " ^ what)
        (Acc.all_inequalities_hold (acc mode)))
    [ ("fixed sigma", Acc.Fix_sigma); ("enumerated sigma", Acc.Enumerate_sigma) ];
  let mm = Dgraph.Matching.greedy g1024 () and mis = Dgraph.Mis.greedy g1024 () in
  Ledger.check "matching: greedy is maximal" (Dgraph.Matching.is_maximal g1024 mm);
  Ledger.check "mis: greedy is maximal" (Dgraph.Mis.is_maximal g1024 mis);
  let edges = G.edges_array g1024 in
  let keys = Array.init 20_000 (fun i -> i * 2654435761 land 0x3FFFFFFF) in
  let sampled_mm =
    Protocols.Sampled_mm.protocol ~budget_bits:64 ~strategy:Protocols.Sampled_mm.Uniform
  in
  ( [
    forest_ms;
    ms "agm.k_forests_ms" (fun () -> ignore (Agm.Connectivity.k_forests g48 ~k:3 coins));
    ms "agm.bipartite_ms" (fun () ->
        ignore (Agm.Connectivity.is_bipartite_via_sketches g128 coins));
    l0_update;
    us "l0.sample_us" (fun () -> ignore (L0.decode l0));
    us "sparse_recovery.decode_us" (fun () -> ignore (Sr.decode sr));
    ms "accounting.analyze_fix_ms" (fun () -> ignore (acc Acc.Fix_sigma));
    ms "accounting.analyze_enum_ms" (fun () -> ignore (acc Acc.Enumerate_sigma));
    ms "coloring.palette_ms" (fun () -> ignore (Coloring.Palette.run g256 coins));
    ms "hard_dist.sample_ms" (fun () -> ignore (Core.Hard_dist.sample rs25 (rng 9)));
    ms "rs.bipartite_ms" (fun () -> ignore (Rsgraph.Rs_graph.bipartite 50));
    ms "graph.freeze_ms" (fun () ->
        let b = G.Builder.create ~capacity:(Array.length edges) (G.n g1024) in
        Array.iter (fun (u, v) -> G.Builder.add_edge b u v) edges;
        ignore (G.Builder.freeze b));
    us "cset.radix_sort_us" (fun () -> Cset.Columnar.radix_sort_nonneg (Array.copy keys));
    ms "model.run_ms" (fun () ->
        ignore (Sketchmodel.Model.run sampled_mm dmm.Core.Hard_dist.graph coins));
    ms "rounds.run_ms" (fun () -> ignore (Protocols.Two_round_mm.run g1024 coins));
    ms "bcc_mm.run_ms" (fun () -> ignore (Protocols.Bcc_mm.run g128 coins));
    ms "hyper_views.run_ms" (fun () -> ignore (Protocols.Hyper_mm.run_iterated h coins));
    ms "multipass.frontier_ms" (fun () -> ignore (Multipass.Frontier.run ~rounds:4 g1024 coins));
    ms "claims.check_ms" (fun () -> ignore (Core.Claims.check dmm ()));
    us "matching.is_maximal_us" (fun () -> ignore (Dgraph.Matching.is_maximal g1024 mm));
    us "mis.is_maximal_us" (fun () -> ignore (Dgraph.Mis.is_maximal g1024 mis));
  ],
    forest_reallocs )

(* Serving layers in-process: the wire codec on the serve-hot payloads,
   cache lookups, and [Service.handle] on the serve-hot stream (hot) and
   on distinct cluster-cold requests (cold). Returns the metrics and the
   wire time of one request/reply round trip in ms. *)
let serving ~seed =
  let module W = Server.Wire in
  let module S = Server.Service in
  let hot_keys = Serving.hot_keys seed in
  let hot = S.create ~workers:2 () in
  let replies =
    List.map (fun r -> (r, (S.handle hot r).S.payload)) (Net.ping_payload :: Array.to_list hot_keys)
  in
  let payloads = List.concat_map (fun (q, r) -> [ q; r ]) replies in
  let frames = List.map W.encode payloads in
  let n = List.length payloads in
  let encode =
    per_item 1e6 "wire.encode_us" n (fun () -> List.iter (fun p -> ignore (W.encode p)) payloads)
  in
  let decode =
    per_item 1e6 "wire.decode_us" n (fun () ->
        List.iter (fun f -> ignore (W.decode f ~off:0)) frames)
  in
  let cache = Server.Cache.create () in
  List.iter (fun (q, r) -> Server.Cache.add cache q r) replies;
  let find =
    per_item 1e6 "cache.find_us" (List.length replies) (fun () ->
        List.iter (fun (q, _) -> ignore (Server.Cache.find cache q)) replies)
  in
  let handle name service r = Stdx.Trace.span ("bench." ^ name) (fun () -> S.handle service r) in
  let check name reply = Serving.check_reply ("in-process " ^ name) reply.S.payload in
  (* Hot: every request a cache hit, a few microseconds each, so the
     figure is seconds per request over the whole stream, median of five
     passes. Cold: distinct requests, each timed alone. *)
  let stream = Serving.hot_stream seed hot_keys in
  let requests = Array.init 2000 (fun _ -> stream ()) in
  Array.iter (fun r -> check "service.handle_hot" (handle "service.handle_hot" hot r)) requests;
  let hot_ms =
    1e3
    *. median
         (Array.init 5 (fun _ ->
              snd
                (timed (fun () ->
                     Array.iter (fun r -> ignore (handle "service.handle_hot" hot r)) requests))
              /. float_of_int (Array.length requests)))
  in
  S.shutdown hot;
  let cold = S.create ~workers:1 () in
  let cold_ms =
    1e3
    *. median
         (Array.init 70 (fun i ->
              let r = Serving.cold_payload ~seed (Serving.warm_base + 1000 + i) in
              let reply, s = timed (fun () -> handle "service.handle_cold" cold r) in
              check "service.handle_cold" reply;
              s))
  in
  S.shutdown cold;
  ( [
      encode;
      decode;
      find;
      ("service.handle_hot_ms", hot_ms);
      ("service.handle_cold_ms", cold_ms);
    ],
    2. *. (snd encode +. snd decode) /. 1000. )
