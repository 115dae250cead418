(* The two serving workloads. The release sketchd/sketchproxy binaries run
   as child processes on loopback; this process is the only load
   generator, with at most nproc (= 2) connections carrying requests. *)

open Util

type bins = { sketchd : string; sketchproxy : string; dir : string }

let connections = 2

let run_payload seed =
  Net.obj
    [
      ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("smoke", T.Jbool true); ("seed", T.Jint seed);
    ]

let sim_payload ~protocol ~n ~p ~seed =
  Net.obj
    [
      ("op", T.Jstr "simulate");
      ("protocol", T.Jstr protocol);
      ("graph", T.Jobj [ ("kind", T.Jstr "gnp"); ("n", T.Jint n); ("p", T.Jfloat p) ]);
      ("seed", T.Jint seed);
    ]

(* The simulated protocols of both mixes. All but stream-matching produce
   a maximal output on every input, by construction. *)
let always_maximal =
  [ "two-round-mm"; "two-round-mis"; "prefix-mis-r4"; "luby-mis-random"; "hyper-iterated-mm" ]

let protocols = Array.of_list (always_maximal @ [ "stream-matching" ])

(* The checks every compute reply gets: [ok:true], and [maximal:true] from
   an always-maximal protocol. *)
let check_reply what payload =
  match Net.json payload with
  | exception _ -> Ledger.check (what ^ ": reply is JSON") false
  | j -> (
      Ledger.check (what ^ ": ok") (T.member "ok" j = Some (T.Jbool true));
      match Net.path j [ "protocol" ] with
      | Some (T.Jstr p) when List.mem p always_maximal ->
          Ledger.check
            (what ^ ": " ^ p ^ " maximal")
            (Net.path j [ "output"; "maximal" ] = Some (T.Jbool true))
      | _ -> ())

(* ====================================================================== *)
(* serve-hot                                                               *)
(* ====================================================================== *)

let herd_size = 2000
let hot_runs = 8

(* The warmed key set: claim31 --smoke over [hot_runs] seeds, then 8
   simulate (protocol, graph) pairs, all derived from the workload seed. *)
let hot_keys seed =
  let rng = Stdx.Prng.create (seed + 17) in
  let runs = Array.init hot_runs (fun i -> run_payload ((seed * 64) + i)) in
  let sims =
    Array.init 8 (fun i ->
        sim_payload
          ~protocol:protocols.(i mod Array.length protocols)
          ~n:(48 + (16 * Stdx.Prng.int rng 3))
          ~p:0.1
          ~seed:((seed * 64) + 32 + i))
  in
  Array.append runs sims

(* The request stream: a third each ping, cached run, cached simulate.
   The equal shares are an assumption, not observed traffic; they follow
   the repository's serve bench (bench/main.ml), which sends each of
   these three kinds the same number of requests. The per-kind latencies
   are reported next to the mixed ones. *)
let hot_stream seed keys =
  let rng = Stdx.Prng.create (seed + 23) in
  fun () ->
    match Stdx.Prng.int rng 3 with
    | 0 -> Net.ping_payload
    | 1 -> keys.(Stdx.Prng.int rng hot_runs)
    | _ -> keys.(hot_runs + Stdx.Prng.int rng (Array.length keys - hot_runs))

type hot = {
  d : Proc.t;
  conns : Net.conn array;
  idle : Unix.file_descr array;
  warm : (string, string * string) Hashtbl.t;  (** hot request -> kind, its cold reply *)
}

let conns_open reply = Net.int_at (Net.json reply) [ "connections"; "open" ]

let hot_setup ~trace bins ~seed =
  let trace_args = match trace with Some f -> [ "--trace"; f ] | None -> [] in
  let d =
    Proc.spawn ~dir:bins.dir ~name:"sketchd-hot" bins.sketchd
      ([ "--workers"; "2"; "--max-conns"; string_of_int (herd_size + 64) ] @ trace_args)
  in
  (* Load connections first: select(2) only takes descriptors below 1024,
     and the herd's are above. *)
  let conns = Array.init connections (fun _ -> Net.connect d.Proc.port) in
  let idle = Net.herd d.Proc.port herd_size in
  let warm = Hashtbl.create 16 in
  Array.iteri
    (fun i k ->
      let r = Net.rpc conns.(0) k in
      check_reply "serve-hot warm-up" r;
      Hashtbl.replace warm k ((if i < hot_runs then "run" else "simulate"), r))
    (hot_keys seed);
  let deadline = now () +. 10. in
  let all_open () = conns_open (Net.rpc conns.(0) Net.stats_payload) >= herd_size + connections in
  while (not (all_open ())) && now () < deadline do
    Unix.sleepf 0.005
  done;
  { d; conns; idle; warm }

let hot_teardown h =
  Array.iter Net.close h.conns;
  Net.close_herd h.idle;
  Net.shutdown [ h.d ]

type hot_result = {
  h_setup : float array;  (** s, one per daemon *)
  h_lat : float array;  (** ms, every timed request *)
  h_daemon_p50 : float array;  (** ms, each daemon's own p50 *)
  h_kinds : (string * dist) list;  (** latency by request kind, ms *)
  h_window : float;
  h_rss : float;  (** the largest daemon's *)
  h_conns_min : int;
  h_stats : T.json;  (** the last daemon's final stats reply *)
  h_trace : string option;
}

(* Closed loop on [connections] connections, for [seconds] split evenly
   over [daemons] daemons started one after another, since a daemon's
   latency varies from one start to the next. Once a second one request
   is an untimed [stats] probe sampling open connections.

   The generator and the daemon share CPU 0 where they can be pinned. On
   separate CPUs, each idle while it waits for the other, the latency
   fell into two modes about 0.15 ms apart, and the mix of the two, which
   moved from run to run, moved the median by a third. On one CPU the
   median sits inside one mode. *)
let serve_hot ?(trace = false) ?(daemons = 5) bins ~seed ~seconds =
  on_cpu0 @@ fun () ->
  let trace = if trace then Some (Filename.concat bins.dir "sketchd-hot.trace.json") else None in
  let keys = hot_keys seed in
  let next_req = hot_stream seed keys in
  let lat = Samples.create () in
  let kinds = Hashtbl.create 4 in
  let conns_min = ref max_int and window = ref 0. and rss = ref 0. in
  let setup_s = Array.make daemons 0. and daemon_p50 = Array.make daemons 0. in
  let fin = ref "" in
  for i = 0 to daemons - 1 do
    let h, st = timed (fun () -> hot_setup ~trace bins ~seed) in
    setup_s.(i) <- st;
    let mine = Samples.create () in
    (* Tag -1 marks the stats probe; other tags index [sent]. *)
    let sent = Hashtbl.create 4 and tag = ref 0 in
    let t0 = now () in
    let next_probe = ref (t0 +. 0.5) in
    let next () =
      let t = now () in
      if t -. t0 >= seconds /. float_of_int daemons then None
      else if t >= !next_probe then begin
        next_probe := t +. 1.;
        Some (-1, Net.stats_payload)
      end
      else begin
        let p = next_req () in
        incr tag;
        Hashtbl.replace sent !tag p;
        Some (!tag, p)
      end
    in
    Net.closed_loop h.conns ~next ~on_reply:(fun tag reply dt ->
        if tag < 0 then conns_min := min !conns_min (conns_open reply)
        else begin
          let req = Hashtbl.find sent tag in
          Hashtbl.remove sent tag;
          let ms = dt *. 1000. in
          Samples.add lat ms;
          Samples.add mine ms;
          let kind, ok =
            match Hashtbl.find_opt h.warm req with
            | Some (kind, cold) -> (kind, reply = cold)
            | None -> ("ping", Net.is_ok reply)
          in
          Ledger.check ("serve-hot " ^ kind ^ " reply") ok;
          match Hashtbl.find_opt kinds kind with
          | Some s -> Samples.add s ms
          | None ->
              let s = Samples.create () in
              Samples.add s ms;
              Hashtbl.replace kinds kind s
        end);
    window := !window +. (now () -. t0);
    daemon_p50.(i) <- median (Samples.to_array mine);
    fin := Net.rpc h.conns.(0) Net.stats_payload;
    conns_min := min !conns_min (conns_open !fin);
    rss := Float.max !rss (vmhwm_mb h.d.Proc.pid);
    hot_teardown h
  done;
  Ledger.check
    (Printf.sprintf "serve-hot: %d idle connections open throughout (min open %d)" herd_size
       !conns_min)
    (!conns_min >= herd_size);
  {
    h_setup = setup_s;
    h_lat = Samples.to_array lat;
    h_daemon_p50 = daemon_p50;
    h_kinds =
      List.sort compare
        (Hashtbl.fold (fun k s acc -> (k, dist (Samples.to_array s)) :: acc) kinds []);
    h_window = !window;
    h_rss = !rss;
    h_conns_min = !conns_min;
    h_stats = Net.json !fin;
    h_trace = trace;
  }

(* ====================================================================== *)
(* cluster-cold                                                            *)
(* ====================================================================== *)

(* Fixed arrival rates, requests per second. The cluster's capacity on
   the cold mix, closed loop on two connections, measured about
   [capacity_rps] on 2 vCPUs at the commit that introduced this
   benchmark. Nominal is 0.4x that and overload 1.5x. The rates stay
   fixed so later commits are measured on the same schedule. *)
let capacity_rps = 700.
let nominal_rps = capacity_rps *. 0.4
let overload_rps = capacity_rps *. 1.5

(* Nominal and overload stretches alternate [cycles] times, so each
   samples the whole window; the overload backlog drains before the next
   nominal stretch starts. *)
let cycles = 3

(* Nothing sheds in front of two request-carrying connections, so an
   overload backlog drains at capacity: the last request of an overload
   stretch of [k] requests waits about [k / 3 / capacity_rps], 0.14 s for
   the traced run's 300-request stretches. The limit is about twice that,
   so a cluster that keeps its capacity answers every request on time,
   and one that loses much of it misses. *)
let cold_limit_ms = 300.

(* The cold mix over distinct seeds: every request misses the cache,
   computes and inserts. A seventh of the requests each are
   [run claim31 --smoke] and [simulate] of one of the six protocols on
   gnp(120, 0.05), 1-4 ms of compute. *)
let cold_payload ~seed i =
  let s = (seed * 1_000_000) + i in
  match i mod (Array.length protocols + 1) with
  | 0 -> run_payload s
  | k -> sim_payload ~protocol:protocols.(k - 1) ~n:120 ~p:0.05 ~seed:s

(* Request index ranges, one per phase, so no key repeats across phases. *)
let nominal_base = 100_000
let overload_base = 200_000
let warm_base = 300_000

type cluster = { backends : Proc.t array; proxy : Proc.t; cconns : Net.conn array }

let cluster_setup ~trace bins ~seed =
  let tr name =
    if trace then [ "--trace"; Filename.concat bins.dir (name ^ ".trace.json") ] else []
  in
  let backends =
    Array.init 2 (fun i ->
        let name = Printf.sprintf "sketchd-b%d" i in
        Proc.spawn ~dir:bins.dir ~name bins.sketchd ([ "--workers"; "1" ] @ tr name))
  in
  let addrs =
    List.concat_map
      (fun b -> [ "-b"; Printf.sprintf "127.0.0.1:%d" b.Proc.port ])
      (Array.to_list backends)
  in
  let proxy =
    Proc.spawn ~dir:bins.dir ~name:"sketchproxy" bins.sketchproxy
      (addrs @ [ "--health-interval"; "60" ] @ tr "sketchproxy")
  in
  let cconns = Array.init connections (fun _ -> Net.connect proxy.Proc.port) in
  (* First computes on both connections: lazy start-up is paid here. *)
  for i = 0 to 7 do
    check_reply "cluster-cold warm-up"
      (Net.rpc cconns.(i mod connections) (cold_payload ~seed (warm_base + i)))
  done;
  { backends; proxy; cconns }

let cluster_teardown c =
  Array.iter Net.close c.cconns;
  Net.shutdown (c.proxy :: Array.to_list c.backends)

type cold_result = {
  c_nominal : float array;  (** ms from due time *)
  c_over_good : int;
  c_over_elapsed : float;  (** s from first due time to last reply *)
  c_over_missed : int;
  c_lag_nominal : float array;  (** generator send lag, ms *)
  c_lag_overload : float array;
  c_backend_stats : T.json list;
  c_depth_max : int;
  c_hop : (dist * dist) option;  (** proxy vs direct, cached request *)
  c_traces : string list;
}

(* [nominal] requests at the nominal rate and [overload] at the overload
   rate, open loop, in [cycles] alternating stretches (one nominal
   stretch when [overload = 0]). *)
let cluster_cold ?(trace = false) ?(hop = false) bins ~seed ~nominal ~overload =
  let c = cluster_setup ~trace bins ~seed in
  let cycles = if overload = 0 then 1 else cycles in
  let n_nom = nominal / cycles and n_over = overload / cycles in
  let lat = Samples.create () in
  let lag_nom = Samples.create () and lag_over = Samples.create () in
  let kept = Hashtbl.create 128 in
  let good = ref 0 and missed = ref 0 and depth = ref 0 and over_elapsed = ref 0. in
  let mon = Array.map (fun b -> Net.connect b.Proc.port) c.backends in
  let sample_depth m = Net.int_at (Net.json (Net.rpc m Net.stats_payload)) [ "queue"; "depth" ] in
  for cycle = 0 to cycles - 1 do
    (* Nominal rate; latencies from due times. Replies of every 16th
       request are kept to replay at the end. *)
    let base = nominal_base + (cycle * n_nom) in
    let r_nom =
      Net.open_loop c.cconns ~rate:nominal_rps ~count:n_nom ~drain_s:30.
        ~payload:(fun i -> cold_payload ~seed (base + i))
        ~on_reply:(fun i r dt ->
          Samples.add lat (dt *. 1000.);
          check_reply "cluster-cold nominal" r;
          if (base + i) mod 16 = 0 then Hashtbl.replace kept (base + i) r)
    in
    Ledger.check "cluster-cold nominal: every request answered" (r_nom.Net.unanswered = 0);
    Array.iter (fun x -> Samples.add lag_nom (x *. 1000.)) r_nom.Net.lag;
    (* Overload rate: correct replies within the latency limit are
       goodput; shed (429), failed and late replies are misses. Backend
       queue depth is sampled every 100 ms on a monitoring connection to
       each backend. *)
    if n_over > 0 then begin
      let next_sample = ref 0. in
      let base = overload_base + (cycle * n_over) in
      let r_over =
        Net.open_loop c.cconns ~rate:overload_rps ~count:n_over ~drain_s:60.
          ~payload:(fun i ->
            if now () >= !next_sample then begin
              next_sample := now () +. 0.1;
              Array.iter (fun m -> depth := max !depth (sample_depth m)) mon
            end;
            cold_payload ~seed (base + i))
          ~on_reply:(fun _ r dt ->
            if Net.is_ok r then begin
              check_reply "cluster-cold overload" r;
              if dt *. 1000. <= cold_limit_ms then incr good else incr missed
            end
            else incr missed)
      in
      missed := !missed + r_over.Net.unanswered;
      over_elapsed := !over_elapsed +. r_over.Net.elapsed;
      Array.iter (fun x -> Samples.add lag_over (x *. 1000.)) r_over.Net.lag
    end
  done;
  (* Backend counters now, before the replay and the hop probe add hits. *)
  let backend_stats =
    Array.to_list (Array.map (fun m -> Net.json (Net.rpc m Net.stats_payload)) mon)
  in
  (* Replay: a re-requested key returns the cold reply byte for byte,
     whether it is still cached or was evicted and recomputed. *)
  List.iter
    (fun (i, r) ->
      Ledger.check
        (Printf.sprintf "cluster-cold replay of request %d byte-identical" i)
        (Net.rpc c.cconns.(0) (cold_payload ~seed i) = r))
    (List.sort compare (Hashtbl.fold (fun i r acc -> (i, r) :: acc) kept []));
  (* Proxy hop: one cached request through the proxy against the same
     request sent straight to a backend. *)
  let hop =
    if not hop then None
    else begin
      let req = cold_payload ~seed (warm_base + 1) in
      let time_on conn =
        ignore (Net.rpc conn req);
        dist (Array.init 1000 (fun _ -> 1000. *. snd (timed (fun () -> Net.rpc conn req))))
      in
      Some (time_on c.cconns.(0), time_on mon.(0))
    end
  in
  Array.iter Net.close mon;
  cluster_teardown c;
  {
    c_nominal = Samples.to_array lat;
    c_over_good = !good;
    c_over_elapsed = !over_elapsed;
    c_over_missed = !missed;
    c_lag_nominal = Samples.to_array lag_nom;
    c_lag_overload = Samples.to_array lag_over;
    c_backend_stats = backend_stats;
    c_depth_max = !depth;
    c_hop = hop;
    c_traces =
      (if trace then
         List.map
           (fun n -> Filename.concat bins.dir (n ^ ".trace.json"))
           [ "sketchd-b0"; "sketchd-b1"; "sketchproxy" ]
       else []);
  }
