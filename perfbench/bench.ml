(* perfbench: the repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: tables-sketch, tables-trials, serve-hot (see README.md).
   With --trace 0 the named workload runs untraced for S seconds and the
   end-to-end metrics are reported. With --trace 1 the traced run repeats
   those three and cluster-cold briefly, untraced and traced alternating,
   probes each layer from outside, and reports the per-layer metrics with
   the tracing overhead.

   Standard output: one report line (environment, sample counts, every
   percentile with its n), then, as the last line, the result object
   {"correct", "attempted", "failed", "metrics"}. *)

open Util

(* cluster-cold has no run of its own: the traced run measures it (see
   README.md, "Seeds and noise"). *)
let workloads = [ "tables-sketch"; "tables-trials"; "serve-hot" ]

(* A traced run whose open-loop generator fell this far behind its
   schedule at the nominal rate (p99 of send lag) measured its own stalls
   in the cluster-cold latencies, not the cluster's: the report marks it
   invalid. That concerns the measurement, not the program's outputs, so
   it leaves [correct] alone. Under overload the generator shares the two
   CPUs with a saturated cluster; its lag there is reported, not judged. *)
let max_lag_p99_ms = 10.

(* Not used while the benchmark was tuned (seeds below 1000 were): the
   seed to validate a later performance claim on. *)
let validation_seed = 1000003

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_of_metrics ms =
  T.Jobj
    (List.map
       (fun x -> (x.name, T.Jobj [ ("value", T.Jfloat x.value); ("unit", T.Jstr x.unit_) ]))
       ms)

(* ---- untraced end-to-end runs ------------------------------------------ *)

let end_to_end ~setup ~wall ~p50 ~p99 ~throughput ~rss =
  [
    m "setup_s" "s" (median setup);
    m "wall_s" "s" wall;
    m "p50_ms" "ms" p50;
    m "p99_ms" "ms" p99;
    m "throughput_rps" "1/s" throughput;
    m "peak_rss_mb" "MiB" rss;
  ]

(* Each table's fastest call in the window: the host's speed drifts over
   seconds, and the fastest of a table's calls moves least with it. *)
let tables_e2e ~workload ~seed ~seconds =
  let set = Tables.set_of workload in
  let r = Tables.run ~workload ~seed ~seconds in
  let best = List.map (fun (id, a) -> (id, minimum a)) r.Tables.by_table in
  let best_ms = Array.of_list (List.map (fun (_, s) -> 1e3 *. s) best) in
  let wall = List.fold_left (fun acc (_, s) -> acc +. s) 0. best in
  let metrics =
    end_to_end ~setup:r.Tables.setup_s ~wall ~p50:(median best_ms)
      ~p99:(Array.fold_left Float.max 0. best_ms)
      ~throughput:(float_of_int (List.length best) /. wall)
      ~rss:(vmhwm_mb 0)
  in
  let details =
    [
      ("jobs", T.Jint set.Tables.jobs);
      ("passes", T.Jint r.Tables.passes);
      ("whp_misses", T.Jarr (List.rev_map (fun s -> T.Jstr s) !Tables.whp_misses));
      ("window_s", T.Jfloat r.Tables.total_s);
      ( "table_call_ms",
        T.Jobj
          (List.map
             (fun (id, a) ->
               let ms = Array.map (fun x -> 1e3 *. x) a in
               ( id,
                 T.Jobj [ ("fastest", T.Jfloat (minimum ms)); ("dist", json_of_dist (dist ms)) ] ))
             r.Tables.by_table) );
      ( "metrics_are",
        T.Jstr
          "over each table's fastest call in the window: wall_s their sum, p50_ms their median, \
           p99_ms the largest (a run makes far fewer than 1000 calls per table, so no tail \
           estimate), throughput_rps tables per second of wall_s" );
      ("closed_loop", T.Jstr "one in-process caller");
    ]
  in
  (metrics, details, true)

let serve_hot_e2e bins ~seed ~seconds =
  let r = Serving.serve_hot bins ~seed ~seconds in
  let lat = r.Serving.h_lat in
  let throughput = float_of_int (Array.length lat) /. r.Serving.h_window in
  let metrics =
    end_to_end ~setup:r.Serving.h_setup ~wall:(1000. /. throughput) ~p50:(median lat)
      ~p99:(quantile lat 0.99) ~throughput ~rss:r.Serving.h_rss
  in
  let details =
    [
      ( "closed_loop",
        T.Jstr
          (Printf.sprintf "closed loop, %d connections, one request outstanding on each"
             Serving.connections) );
      ("conns_open_min", T.Jint r.Serving.h_conns_min);
      ("latency_ms", json_of_dist (dist lat));
      ( "daemon_p50_ms",
        T.Jarr (Array.to_list (Array.map (fun x -> T.Jfloat x) r.Serving.h_daemon_p50)) );
      ("by_kind_ms", T.Jobj (List.map (fun (k, d) -> (k, json_of_dist d)) r.Serving.h_kinds));
      ("wall_s_is", T.Jstr "seconds per 1000 completed requests over the window");
    ]
  in
  (metrics, details, true)

(* ---- self time from traces --------------------------------------------- *)

type span = { sname : string; tid : int; ts : float; dur : float }

(* Self time per span category (the name's dot prefix): a span's duration
   minus the part its direct children on the same thread cover. *)
let self_times spans =
  let acc = Hashtbl.create 16 in
  let add name v =
    let cat =
      match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
    in
    Hashtbl.replace acc cat (v +. Option.value ~default:0. (Hashtbl.find_opt acc cat))
  in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.iter
    (fun _ l ->
      let l = List.sort (fun a b -> compare (a.ts, -.a.dur) (b.ts, -.b.dur)) l in
      let stack = ref [] in
      let close (s, child) = add s.sname (Float.max 0. (s.dur -. !child)) in
      List.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | ((top, _) as x) :: rest when top.ts +. top.dur <= s.ts ->
                close x;
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with (_, child) :: _ -> child := !child +. s.dur | [] -> ());
          stack := (s, ref 0.) :: !stack)
        l;
      List.iter close !stack)
    by_tid;
  Hashtbl.fold (fun k v l -> (k, v /. 1000.) :: l) acc [] |> List.sort compare

let in_process_spans ~tid_base events =
  List.filter_map
    (fun (e : Stdx.Trace.event) ->
      if e.Stdx.Trace.ph = Stdx.Trace.Complete then
        Some
          {
            sname = e.Stdx.Trace.name;
            tid = tid_base + e.Stdx.Trace.tid;
            ts = e.Stdx.Trace.ts_us;
            dur = e.Stdx.Trace.dur_us;
          }
      else None)
    events

let file_spans ~tid_base path =
  match T.member "traceEvents" (Net.json (read_file path)) with
  | Some (T.Jarr evs) ->
      List.filter_map
        (fun e ->
          match (T.member "ph" e, T.member "name" e) with
          | Some (T.Jstr "X"), Some (T.Jstr name) ->
              Some
                {
                  sname = name;
                  tid = tid_base + Net.int_at e [ "tid" ];
                  ts = Net.float_at e [ "ts" ];
                  dur = Net.float_at e [ "dur" ];
                }
          | _ -> None)
        evs
  | _ -> failwith ("no traceEvents in " ^ path)

(* The categories reported as per-layer self-time metrics; the report line
   carries every category found. *)
let self_categories =
  [
    "exp"; "parallel"; "graph"; "hard_dist"; "claims";
    "protocol"; "daemon"; "rpc"; "scheduler"; "proxy";
  ]

(* ---- the traced run ---------------------------------------------------- *)

(* Per table: its fastest untraced wall and its allocation. GC counts
   are summed per set: most tables allocate less than one minor heap, so
   their own counts are 0 and only go in the report. *)
let table_metrics ~set calls_wall calls_gc =
  let gc id = (List.find (fun (x : Tables.call) -> x.Tables.id = id) calls_gc).Tables.gc in
  let count f =
    float_of_int (List.fold_left (fun acc (c : Tables.call) -> acc + f c.Tables.gc) 0 calls_gc)
  in
  List.concat_map
    (fun (id, wall) ->
      let p = "table." ^ id ^ "." in
      [
        m (p ^ "wall_s") "s" wall;
        m (p ^ "alloc_mb") "MiB" ((gc id).Core.Exp_registry.alloc_bytes /. 1048576.);
      ])
    calls_wall
  @ [ m (set ^ ".minor_gcs") "count" (count (fun g -> g.Core.Exp_registry.minor_collections)) ]
  @
  if set = "tables-sketch" then
    [ m (set ^ ".major_gcs") "count" (count (fun g -> g.Core.Exp_registry.major_collections)) ]
  else []

let json_of_gc calls =
  T.Jobj
    (List.map
       (fun (c : Tables.call) ->
         let g = c.Tables.gc in
         ( c.Tables.id,
           T.Jobj
             [
               ("alloc_mb", T.Jfloat (g.Core.Exp_registry.alloc_bytes /. 1048576.));
               ("minor_gcs", T.Jint g.Core.Exp_registry.minor_collections);
               ("major_gcs", T.Jint g.Core.Exp_registry.major_collections);
             ] ))
       calls)

(* Untraced and traced repeats alternate, [pairs] of each, so the host's
   drift falls on both alike; the tracing overhead is the median of the
   pairwise differences. *)
let pairs = 3

let alternate untraced traced =
  List.init pairs (fun _ ->
      let u = untraced () in
      (u, traced ()))

let median_diff f ps = median (Array.of_list (List.map (fun (u, t) -> f t -. f u) ps))

(* Each table's fastest call over some passes, in set order. *)
let best_calls passes =
  let wall id p = (List.find (fun (x : Tables.call) -> x.Tables.id = id) p).Tables.wall in
  List.map
    (fun (c : Tables.call) ->
      let id = c.Tables.id in
      (id, List.fold_left (fun acc p -> Float.min acc (wall id p)) infinity passes))
    (List.hd passes)

let traced bins ~seed ~seconds =
  let spans = ref [] in
  let traced_pass ~jobs ids =
    Stdx.Trace.enable ~capacity:(1 lsl 18) ();
    Stdx.Trace.reset ();
    let r = Tables.pass ~seed ~jobs ids in
    spans := in_process_spans ~tid_base:0 (Stdx.Trace.dump ()) @ !spans;
    Stdx.Trace.disable ();
    Stdx.Trace.reset ();
    List.map snd r
  in
  let untraced_pass ~jobs ids () = List.map snd (Tables.pass ~seed ~jobs ids) in
  let wall = Tables.pass_wall in
  let call_p50_ms cs =
    1e3 *. median (Array.of_list (List.map (fun (c : Tables.call) -> c.Tables.wall) cs))
  in
  (* tables-sketch, -j 1 *)
  Tables.setup ~seed ~jobs:1 Tables.sketch_ids;
  let sk =
    alternate (untraced_pass ~jobs:1 Tables.sketch_ids) (fun () ->
        traced_pass ~jobs:1 Tables.sketch_ids)
  in
  (* tables-trials, -j 2, plus -j 1 for the parallel efficiency and the
     full GC counts (the counters are per domain) *)
  Tables.setup ~seed ~jobs:2 Tables.trials_ids;
  let tr =
    alternate (untraced_pass ~jobs:2 Tables.trials_ids) (fun () ->
        traced_pass ~jobs:2 Tables.trials_ids)
  in
  let tr1 = List.init pairs (fun _ -> untraced_pass ~jobs:1 Tables.trials_ids ()) in
  List.iter2
    (fun (a : Tables.call) (b : Tables.call) ->
      Ledger.check (a.Tables.id ^ ": text identical at -j 2 and -j 1")
        (a.Tables.text = b.Tables.text))
    (fst (List.hd tr)) (List.hd tr1);
  let sk_u = List.map fst sk and tr_u = List.map fst tr in
  let sum_best passes = List.fold_left (fun acc (_, w) -> acc +. w) 0. (best_calls passes) in
  (* serve-hot, untraced and traced daemons alternating *)
  let short = Float.max 1. (seconds *. 0.05) in
  let hot =
    alternate
      (fun () -> Serving.serve_hot ~daemons:1 bins ~seed ~seconds:short)
      (fun () -> Serving.serve_hot ~trace:true ~daemons:1 bins ~seed ~seconds:short)
  in
  let hot_u = List.map fst hot in
  let h0 = List.hd hot_u in
  (* cluster-cold: one untraced run at both rates with the proxy-hop
     probe, long enough for more distinct keys than the two 512-entry
     caches hold, so evictions show; then short nominal runs, untraced and
     traced alternating. *)
  let cold = Serving.cluster_cold ~hop:true bins ~seed ~nominal:1200 ~overload:900 in
  let cold_pairs =
    alternate
      (fun () -> Serving.cluster_cold bins ~seed ~nominal:300 ~overload:0)
      (fun () -> Serving.cluster_cold ~trace:true bins ~seed ~nominal:300 ~overload:0)
  in
  (* in-process layer probes, traced *)
  Stdx.Trace.enable ~capacity:(1 lsl 18) ();
  Stdx.Trace.reset ();
  let compute, reallocs = Layers.compute ~seed in
  let serving_layers, wire_ms = Layers.serving ~seed in
  spans := in_process_spans ~tid_base:0 (Stdx.Trace.dump ()) @ !spans;
  Stdx.Trace.disable ();
  (* The daemons' trace files hold the last traced run of each. *)
  let files =
    Option.to_list (snd (List.hd (List.rev hot))).Serving.h_trace
    @ (snd (List.hd (List.rev cold_pairs))).Serving.c_traces
  in
  List.iteri (fun i f -> spans := file_spans ~tid_base:((i + 1) * 1_000_000) f @ !spans) files;
  let selfs = self_times !spans in
  let p50 a = median a in
  let med f l = median (Array.of_list (List.map f l)) in
  let handle_hot = List.assoc "service.handle_hot_ms" serving_layers in
  let handle_cold = List.assoc "service.handle_cold_ms" serving_layers in
  let hit_ratio j =
    let h = Net.int_at j [ "cache"; "hits" ] and mi = Net.int_at j [ "cache"; "misses" ] in
    float_of_int h /. float_of_int (max 1 (h + mi))
  in
  let sum f = List.fold_left (fun acc j -> acc + f j) 0 cold.Serving.c_backend_stats in
  let fmax f =
    List.fold_left (fun acc j -> Float.max acc (f j)) neg_infinity cold.Serving.c_backend_stats
  in
  let computes j =
    max 0 (Net.int_at j [ "requests"; "by_op"; "simulate" ])
    + max 0 (Net.int_at j [ "requests"; "by_op"; "run" ])
  in
  let hop_ms =
    match cold.Serving.c_hop with Some (via, direct) -> via.p50 -. direct.p50 | None -> nan
  in
  let hot_p50 = med (fun h -> p50 h.Serving.h_lat) hot_u in
  let kind_p50 k = med (fun h -> (List.assoc k h.Serving.h_kinds).p50) hot_u in
  let cold_lat = cold.Serving.c_nominal in
  let layer_metrics =
    table_metrics ~set:"tables-sketch" (best_calls sk_u) (List.hd sk_u)
    @ table_metrics ~set:"tables-trials" (best_calls tr_u) (List.hd tr1)
    @ List.map
        (fun (name, v) ->
          let unit_ =
            if Filename.check_suffix name "_ms" then "ms"
            else if Filename.check_suffix name "_us" then "us"
            else if Filename.check_suffix name "_ns" then "ns"
            else "count"
          in
          m name unit_ v)
        (compute @ serving_layers)
    @ [
        m "parallel.efficiency" "ratio" (sum_best tr1 /. (2. *. sum_best tr_u));
        m "daemon.overhead_ms" "ms" (hot_p50 -. handle_hot -. wire_ms);
        m "daemon.conns_open" "count"
          (float_of_int (List.fold_left (fun a h -> min a h.Serving.h_conns_min) max_int hot_u));
        m "serve-hot.ping.p50_ms" "ms" (kind_p50 "ping");
        m "serve-hot.run.p50_ms" "ms" (kind_p50 "run");
        m "serve-hot.simulate.p50_ms" "ms" (kind_p50 "simulate");
        m "serve-hot.cache.hit_ratio" "ratio" (hit_ratio h0.Serving.h_stats);
        m "serve-hot.server.p50_ms" "ms" (Net.float_at h0.Serving.h_stats [ "latency_ms"; "p50" ]);
        m "serve-hot.server.p99_ms" "ms" (Net.float_at h0.Serving.h_stats [ "latency_ms"; "p99" ]);
        m "cluster-cold.p50_ms" "ms" (p50 cold_lat);
        m "cluster-cold.p99_ms" "ms" (quantile cold_lat 0.99);
        m "cluster-cold.goodput_rps" "1/s"
          (float_of_int cold.Serving.c_over_good /. cold.Serving.c_over_elapsed);
        m "cache.evictions" "count"
          (float_of_int (sum (fun j -> Net.int_at j [ "cache"; "evictions" ])));
        m "scheduler.queue_wait_ms" "ms" (p50 cold_lat -. handle_cold);
        m "scheduler.depth" "count" (float_of_int cold.Serving.c_depth_max);
        m "proxy.hop_ms" "ms" hop_ms;
        m "ring.max_share" "ratio"
          (fmax (fun j -> float_of_int (computes j)) /. float_of_int (max 1 (sum computes)));
        m "cluster-cold.server.p50_ms" "ms"
          (fmax (fun j -> Net.float_at j [ "latency_ms"; "p50" ]));
        m "cluster-cold.server.p99_ms" "ms"
          (fmax (fun j -> Net.float_at j [ "latency_ms"; "p99" ]));
        m "loadgen.lag_p99_ms" "ms" (quantile cold.Serving.c_lag_nominal 0.99);
        m "trace_overhead.tables-sketch.wall_s" "s" (median_diff wall sk);
        m "trace_overhead.tables-trials.wall_s" "s" (median_diff wall tr);
        m "trace_overhead.tables-sketch.p50_ms" "ms" (median_diff call_p50_ms sk);
        m "trace_overhead.tables-trials.p50_ms" "ms" (median_diff call_p50_ms tr);
        m "trace_overhead.serve-hot.p50_ms" "ms" (median_diff (fun h -> p50 h.Serving.h_lat) hot);
        m "trace_overhead.cluster-cold.p50_ms" "ms"
          (median_diff (fun c -> p50 c.Serving.c_nominal) cold_pairs);
      ]
    @ List.map
        (fun cat ->
          m ("self." ^ cat ^ "_ms") "ms" (Option.value ~default:0. (List.assoc_opt cat selfs)))
        self_categories
  in
  let cold_hits = sum (fun j -> Net.int_at j [ "cache"; "hits" ]) in
  let cold_misses = sum (fun j -> Net.int_at j [ "cache"; "misses" ]) in
  let details =
    [
      (* Counters that are 0 by design on these workloads: reported here,
         not as metrics. *)
      ("scratch_reallocs_after_first_forest", T.Jint reallocs);
      ("cluster_cold_cache", T.Jobj [ ("hits", T.Jint cold_hits); ("misses", T.Jint cold_misses) ]);
      ("scheduler_shed", T.Jint (sum (fun j -> Net.int_at j [ "queue"; "shed" ])));
      ( "table_gc",
        T.Jobj
          [
            ("tables-sketch", json_of_gc (List.hd sk_u));
            ("tables-trials", json_of_gc (List.hd tr1));
          ] );
      ("self_time_ms", T.Jobj (List.map (fun (k, v) -> (k, T.Jfloat v)) selfs));
      ( "serve_hot_latency_ms",
        T.Jarr (List.map (fun h -> json_of_dist (dist h.Serving.h_lat)) hot_u) );
      ( "serve_hot_traced_latency_ms",
        T.Jarr (List.map (fun (_, h) -> json_of_dist (dist h.Serving.h_lat)) hot) );
      ("cluster_cold_nominal_ms", json_of_dist (dist cold_lat));
      ( "cluster_cold_overload",
        T.Jobj
          [
            ("good", T.Jint cold.Serving.c_over_good);
            ("missed", T.Jint cold.Serving.c_over_missed);
            ("elapsed_s", T.Jfloat cold.Serving.c_over_elapsed);
            ("latency_limit_ms", T.Jfloat Serving.cold_limit_ms);
          ] );
      ("loadgen_lag_nominal_ms", json_of_dist (dist cold.Serving.c_lag_nominal));
      ("loadgen_lag_overload_ms", json_of_dist (dist cold.Serving.c_lag_overload));
      ( "proxy_hop",
        match cold.Serving.c_hop with
        | Some (via, direct) ->
            T.Jobj [ ("via_proxy_ms", json_of_dist via); ("direct_ms", json_of_dist direct) ]
        | None -> T.Jnull );
      ("trace_files", T.Jarr (List.map (fun f -> T.Jstr (Filename.basename f)) files));
    ]
  in
  (layer_metrics, details, quantile cold.Serving.c_lag_nominal 0.99 <= max_lag_p99_ms)

(* ---- main -------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (tables-sketch|tables-trials|serve-hot) --seed N \
     --seconds S --trace 0|1 [--root DIR] [--bin-dir DIR] [--run-dir DIR] [--build-profile NAME]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref false in
  let root = ref "." and bin_dir = ref "_build/default/bin" and run_dir = ref "_build/perfbench" in
  let profile = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | flag :: v :: rest ->
        (match flag with
        | "--workload" -> workload := v
        | "--seed" -> seed := int_of_string_opt v
        | "--seconds" -> (
            match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ())
        | "--trace" when v = "0" || v = "1" -> trace := v = "1"
        | "--root" -> root := v
        | "--bin-dir" -> bin_dir := v
        | "--run-dir" -> run_dir := v
        | "--build-profile" -> profile := v
        | _ -> usage ());
        parse rest
    | [ _ ] -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  let seed = match !seed with Some s when s >= 0 -> s | _ -> usage () in
  (* A peer that goes away must surface as an error, not kill us. *)
  let steal0 = steal_ticks () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  (try Unix.mkdir !run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let bins =
    {
      Serving.sketchd = Filename.concat !bin_dir "sketchd.exe";
      sketchproxy = Filename.concat !bin_dir "sketchproxy.exe";
      dir = !run_dir;
    }
  in
  match
    if !trace then traced bins ~seed ~seconds:!seconds
    else
      match !workload with
      | "serve-hot" -> serve_hot_e2e bins ~seed ~seconds:!seconds
      | w -> tables_e2e ~workload:w ~seed ~seconds:!seconds
  with
  | exception e ->
      log "run aborted: %s" (Printexc.to_string e);
      Proc.kill_all ();
      exit 1
  | metrics, details, valid ->
      Proc.kill_all ();
      let attempted = !Ledger.attempted and failed = !Ledger.failed in
      let env =
        environment ~root:!root ~profile:!profile ~workload:!workload ~seed ~trace:!trace
          [
            ("seconds", T.Jfloat !seconds);
            (* The traced run always opens the serve-hot herd. *)
            ( "idle_sockets",
              T.Jint (if !trace || !workload = "serve-hot" then Serving.herd_size else 0) );
            ("validation_seed", T.Jint validation_seed);
            ("serve_hot_on_cpu0", T.Jbool (Lazy.force can_pin));
            ( "host_steal_ticks",
              match (steal0, steal_ticks ()) with
              | Some a, Some b -> T.Jint (b - a)
              | _ -> T.Jnull );
          ]
      in
      let report =
        T.Jobj
          ([
             ("perfbench", T.Jstr "report");
             ("environment", env);
             ("error_rate", T.Jfloat (Ledger.error_rate ()));
             ("valid", T.Jbool valid);
           ]
          @ details)
      in
      print_endline (T.string_of_json report);
      List.iter (fun x -> log "%-40s %14.6f %s" x.name x.value x.unit_) metrics;
      log "error_rate %.6f (%d failed / %d attempted)%s" (Ledger.error_rate ()) failed attempted
        (if valid then "" else "; INVALID: generator fell behind");
      print_endline
        (T.string_of_json
           (T.Jobj
              [
                ("correct", T.Jbool (failed = 0));
                ("attempted", T.Jint attempted);
                ("failed", T.Jint failed);
                ("metrics", json_of_metrics metrics);
              ]));
      exit 0
