(* The routing tier: qcheck properties of the consistent-hash ring
   (balance, exact key-stability under backend removal, successor
   coverage), fault injection against real sketchd backends (kill one,
   failover serves the byte-identical response; restart it, health
   recovery routes back), the proxy's local endpoints, and a golden
   snapshot of the aggregated cluster stats schema. *)

module T = Report.Tabular
module Ring = Server.Ring
module Health = Server.Health
module Proxy = Server.Proxy

let backends4 = [ "10.0.0.1:9001"; "10.0.0.2:9001"; "10.0.0.3:9001"; "10.0.0.4:9001" ]
let key salt i = Printf.sprintf "run?id=claim31&salt=%d&i=%d" salt i

(* --------------------------------------------------------------- *)
(* Ring properties                                                  *)

let ring_balance =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ring balance: shares near ideal over 2k keys" ~count:10
       QCheck.(int_range 0 1_000_000)
       (fun salt ->
         let r = Ring.create ~vnodes:160 backends4 in
         let counts = Hashtbl.create 4 in
         for i = 0 to 1999 do
           let b = Ring.route r (key salt i) in
           Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b))
         done;
         (* Ideal is 500 each; 160 vnodes keeps every share well inside a
            generous [25%, 200%]-of-ideal band. *)
         List.for_all
           (fun b ->
             let n = Option.value ~default:0 (Hashtbl.find_opt counts b) in
             n >= 125 && n <= 1000)
           backends4))

let ring_stability =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ring stability: removal re-routes only the removed shard"
       ~count:10
       QCheck.(pair (int_range 0 1_000_000) (int_range 0 3))
       (fun (salt, victim_ix) ->
         let r = Ring.create ~vnodes:64 backends4 in
         let victim = List.nth backends4 victim_ix in
         let r' = Ring.remove r victim in
         let moved = ref 0 in
         let stable = ref true in
         for i = 0 to 999 do
           let k = key salt i in
           let before = Ring.route r k in
           let after = Ring.route r' k in
           if before = victim then begin
             incr moved;
             if after = victim then stable := false
           end
           else if after <> before then stable := false
         done;
         (* Exactly the victim's keys moved — and that shard is roughly a
            quarter of the space, not all of it (the whole point of
            consistent hashing vs. mod-N). *)
         !stable && !moved > 0 && !moved < 700))

let ring_successors =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ring successors: head routes, covers every backend once"
       ~count:50
       QCheck.(int_range 0 1_000_000)
       (fun salt ->
         let r = Ring.create ~vnodes:16 backends4 in
         let k = key salt 0 in
         let s = Ring.successors r k in
         List.hd s = Ring.route r k
         && List.sort compare s = List.sort compare backends4))

let ring_hash_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ring hash: deterministic and non-negative" ~count:200
       QCheck.string (fun s -> Ring.hash_key s = Ring.hash_key s && Ring.hash_key s >= 0))

let test_ring_validation () =
  let rejects f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "empty list rejected" true (rejects (fun () -> Ring.create []));
  Alcotest.(check bool)
    "duplicates rejected" true
    (rejects (fun () -> Ring.create [ "a:1"; "a:1" ]));
  Alcotest.(check bool)
    "vnodes < 1 rejected" true
    (rejects (fun () -> Ring.create ~vnodes:0 [ "a:1" ]));
  Alcotest.(check bool)
    "removing the last backend rejected" true
    (rejects (fun () -> Ring.remove (Ring.create [ "a:1" ]) "a:1"))

(* --------------------------------------------------------------- *)
(* Helpers for live-backend tests                                   *)

let addr_of d = Printf.sprintf "127.0.0.1:%d" (Server.Daemon.port d)

let sim_payload seed =
  Printf.sprintf
    "{\"op\":\"simulate\",\"protocol\":\"two-round-mm\",\"graph\":{\"kind\":\"gnp\",\"n\":32,\"p\":0.2},\"seed\":%d}"
    seed

let is_ok response =
  match T.member "ok" (T.json_of_string response) with Some (T.Jbool true) -> true | _ -> false

let error_tag response =
  match T.member "error" (T.json_of_string response) with Some (T.Jstr e) -> Some e | _ -> None

(* A seed whose canonical cache key routes to [target] on [ring]. *)
let seed_routed_to ring target =
  let rec go s =
    if s > 5000 then Alcotest.fail "no seed routed to target backend in 5000 tries"
    else
      let k =
        match Server.Service.request_key (T.json_of_string (sim_payload s)) with
        | Some k -> k
        | None -> Alcotest.fail "simulate payload has no cache key"
      in
      if Ring.route ring k = target then s else go (s + 1)
  in
  go 0

(* A loopback port with nothing listening: bind, read it back, close. *)
let dead_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  port

(* --------------------------------------------------------------- *)
(* Fault injection: kill, failover, restart, recover                *)

let test_failover_byte_identical () =
  let a = Server.Daemon.start ~workers:1 ~capacity:8 () in
  let b = Server.Daemon.start ~workers:1 ~capacity:8 () in
  let b_port = Server.Daemon.port b in
  let p = Proxy.create ~backends:[ addr_of a; addr_of b ] () in
  Fun.protect ~finally:(fun () -> Proxy.close p) @@ fun () ->
  let seed = seed_routed_to (Proxy.ring p) (addr_of b) in
  let req () = (Proxy.handle p (sim_payload seed)).Server.Service.payload in
  let r1 = req () in
  Alcotest.(check bool) "initial request ok" true (is_ok r1);
  (* Kill the owning backend outright. *)
  Server.Daemon.stop ~abort_connections:true b;
  Server.Daemon.wait b;
  let r2 = req () in
  Alcotest.(check string) "failover response byte-identical" r1 r2;
  Alcotest.(check bool)
    "dead backend marked down" false
    (Health.healthy (Proxy.health p) (Printf.sprintf "127.0.0.1:%d" b_port));
  (* Restart a fresh daemon on the same port; a sweep must resurrect it. *)
  let b2 = Server.Daemon.start ~port:b_port ~workers:1 ~capacity:8 () in
  Fun.protect ~finally:(fun () ->
      (* Abort: the proxy's pooled idle connections would otherwise keep
         the backends' connection threads alive and [wait] blocked. *)
      Server.Daemon.stop ~abort_connections:true b2;
      Server.Daemon.wait b2;
      Server.Daemon.stop ~abort_connections:true a;
      Server.Daemon.wait a)
  @@ fun () ->
  Proxy.check_health p;
  Alcotest.(check bool)
    "restarted backend healthy again" true
    (Health.healthy (Proxy.health p) (Printf.sprintf "127.0.0.1:%d" b_port));
  let r3 = req () in
  Alcotest.(check string) "recovered route byte-identical" r1 r3;
  (* And the request really went to the restarted backend, not a stale
     pooled connection or the failover target. *)
  let b2_stats =
    (Server.Service.handle (Server.Daemon.service b2) "{\"op\":\"stats\"}").Server.Service
    .payload
  in
  let simulates =
    match
      T.member "requests" (T.json_of_string b2_stats)
      |> Option.map (T.member "by_op")
    with
    | Some (Some (T.Jobj ops)) -> (
        match List.assoc_opt "simulate" ops with Some (T.Jint n) -> n | _ -> 0)
    | _ -> 0
  in
  Alcotest.(check bool) "restarted backend served the request" true (simulates >= 1)

let test_all_backends_dead () =
  let p =
    Proxy.create
      ~backends:
        [
          Printf.sprintf "127.0.0.1:%d" (dead_port ());
          Printf.sprintf "127.0.0.1:%d" (dead_port ());
        ]
      ()
  in
  Fun.protect ~finally:(fun () -> Proxy.close p) @@ fun () ->
  let r = (Proxy.handle p (sim_payload 3)).Server.Service.payload in
  Alcotest.(check (option string)) "502 no-backend" (Some "no-backend") (error_tag r);
  (match T.member "code" (T.json_of_string r) with
  | Some (T.Jint 502) -> ()
  | _ -> Alcotest.fail "no-backend must carry code 502");
  (* Local endpoints keep answering with the whole cluster down. *)
  Alcotest.(check bool)
    "ping still local-ok" true
    (is_ok (Proxy.handle p "{\"op\":\"ping\"}").Server.Service.payload)

(* --------------------------------------------------------------- *)
(* Local endpoints                                                  *)

let test_ping_role () =
  let p = Proxy.create ~backends:[ "127.0.0.1:1" ] () in
  Fun.protect ~finally:(fun () -> Proxy.close p) @@ fun () ->
  let j = T.json_of_string (Proxy.handle p "{\"op\":\"ping\"}").Server.Service.payload in
  Alcotest.(check bool) "ok" true (T.member "ok" j = Some (T.Jbool true));
  Alcotest.(check bool) "role=proxy" true (T.member "role" j = Some (T.Jstr "proxy"));
  Alcotest.(check bool)
    "version present" true
    (T.member "version" j = Some (T.Jstr Stdx.Version.current))

let test_cluster_rpc () =
  let a = Server.Daemon.start ~workers:1 ~capacity:8 () in
  Fun.protect ~finally:(fun () ->
      Server.Daemon.stop a;
      Server.Daemon.wait a)
  @@ fun () ->
  let dead = Printf.sprintf "127.0.0.1:%d" (dead_port ()) in
  let p = Proxy.create ~backends:[ addr_of a; dead ] () in
  Fun.protect ~finally:(fun () -> Proxy.close p) @@ fun () ->
  Proxy.check_health p;
  let j = T.json_of_string (Proxy.handle p "{\"op\":\"cluster\"}").Server.Service.payload in
  Alcotest.(check bool) "ok" true (T.member "ok" j = Some (T.Jbool true));
  match T.member "backends" j with
  | Some (T.Jarr [ live; down ]) ->
      Alcotest.(check bool)
        "live backend healthy" true
        (T.member "healthy" live = Some (T.Jbool true));
      Alcotest.(check bool)
        "dead backend unhealthy" true
        (T.member "healthy" down = Some (T.Jbool false));
      Alcotest.(check bool)
        "dead backend carries last_error" true
        (match T.member "last_error" down with Some (T.Jstr _) -> true | _ -> false)
  | _ -> Alcotest.fail "cluster response must list both backends in order"

let test_stats_aggregation_live () =
  let a = Server.Daemon.start ~workers:1 ~capacity:8 () in
  let b = Server.Daemon.start ~workers:1 ~capacity:8 () in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun d ->
          Server.Daemon.stop d;
          Server.Daemon.wait d)
        [ a; b ])
  @@ fun () ->
  let p = Proxy.create ~backends:[ addr_of a; addr_of b ] () in
  Fun.protect ~finally:(fun () -> Proxy.close p) @@ fun () ->
  (* Spread a few simulates across both shards, then aggregate. *)
  for seed = 0 to 9 do
    let r = (Proxy.handle p (sim_payload seed)).Server.Service.payload in
    Alcotest.(check bool) "simulate ok" true (is_ok r)
  done;
  let j = T.json_of_string (Proxy.handle p "{\"op\":\"stats\"}").Server.Service.payload in
  Alcotest.(check bool) "ok" true (T.member "ok" j = Some (T.Jbool true));
  let int_at path =
    List.fold_left
      (fun acc k -> match acc with Some v -> T.member k v | None -> None)
      (Some j) path
    |> function
    | Some (T.Jint n) -> n
    | _ -> -1
  in
  Alcotest.(check int) "cluster size" 2 (int_at [ "cluster"; "backends" ]);
  Alcotest.(check int) "all healthy" 2 (int_at [ "cluster"; "healthy" ]);
  Alcotest.(check int) "proxy forwarded all" 10 (int_at [ "proxy"; "forwarded" ]);
  (* The `stats` probes themselves also count on the backends, so the
     cluster-wide total is at least the 10 forwarded simulates. *)
  Alcotest.(check bool) "summed totals" true (int_at [ "requests"; "total" ] >= 10);
  (match T.member "backends" j with
  | Some (T.Jarr ([ _; _ ] as bs)) ->
      List.iter
        (fun bj ->
          Alcotest.(check bool)
            "per-backend stats present" true
            (match T.member "requests_total" bj with Some (T.Jint _) -> true | _ -> false))
        bs
  | _ -> Alcotest.fail "stats must carry one entry per backend");
  (* Both shards saw work: the ring spread 10 seeds over 2 backends. *)
  Alcotest.(check bool)
    "cache misses across cluster" true
    (int_at [ "cache"; "misses" ] >= 10)

(* A [cache invalidate] sent straight to one backend shows up in the
   proxy's summed [cache] block. *)
let test_stats_sum_invalidations () =
  let a = Server.Daemon.start ~workers:1 ~capacity:8 () in
  let b = Server.Daemon.start ~workers:1 ~capacity:8 () in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun d ->
          Server.Daemon.stop ~abort_connections:true d;
          Server.Daemon.wait d)
        [ a; b ])
  @@ fun () ->
  let p = Proxy.create ~backends:[ addr_of a; addr_of b ] () in
  Fun.protect ~finally:(fun () -> Proxy.close p) @@ fun () ->
  let seed = seed_routed_to (Proxy.ring p) (addr_of a) in
  Alcotest.(check bool)
    "simulate ok" true
    (is_ok (Proxy.handle p (sim_payload seed)).Server.Service.payload);
  let invalidated =
    Server.Client.with_connection ~port:(Server.Daemon.port a) (fun c ->
        Server.Client.request c "{\"op\":\"cache\",\"action\":\"invalidate\",\"prefix\":\"\"}")
    |> T.json_of_string |> T.member "invalidated"
  in
  Alcotest.(check bool) "backend dropped the entry" true (invalidated = Some (T.Jint 1));
  let stats = T.json_of_string (Proxy.handle p "{\"op\":\"stats\"}").Server.Service.payload in
  Alcotest.(check bool)
    "proxy sums invalidations" true
    (Option.bind (T.member "cache" stats) (T.member "invalidations") = Some (T.Jint 1))

(* --------------------------------------------------------------- *)
(* Golden: aggregated cluster stats schema                          *)

let test_golden_cluster_stats () =
  let m =
    {
      Server.Metrics.uptime_s = 12.5;
      total = 42;
      errors = 3;
      by_op = [ ("ping", 2); ("run", 30); ("simulate", 10) ];
      latency_count = 42;
      p50_ms = 0.5;
      p90_ms = 1.25;
      p99_ms = 4.;
      max_ms = 9.;
      conns_open = 1;
      conns_accepted = 5;
      conns_rejected = 0;
      idle_timeouts = 0;
      rate_limited = 0;
    }
  in
  let backend_stats uptime total =
    T.json_of_string
      (Printf.sprintf
         "{\"ok\":true,\"op\":\"stats\",\"version\":\"VERSION\",\"uptime_s\":%s,\"requests\":{\"total\":%d,\"errors\":1,\"by_op\":{\"ping\":4,\"run\":%d}},\"cache\":{\"hits\":7,\"misses\":5,\"entries\":5,\"bytes\":2048,\"evictions\":0,\"invalidations\":1},\"queue\":{\"depth\":0,\"capacity\":16,\"workers\":2,\"shed\":1,\"deadline_drops\":0,\"cancelled_drops\":0},\"latency_ms\":{\"count\":%d,\"p50\":0.25,\"p90\":1.5,\"p99\":2.5,\"max\":3.5}}"
         (T.float_repr uptime) total (total - 4) total)
  in
  let got =
    Proxy.render_stats ~version:"VERSION" ~uptime_s:12.5 ~m ~forwarded:40 ~failovers:2
      ~retries:1 ~shed_relayed:0
      ~backends:
        [
          ("127.0.0.1:7001", true, Some (backend_stats 11.5 20));
          ("127.0.0.1:7002", true, Some (backend_stats 10.5 18));
          ("127.0.0.1:7003", false, None);
        ]
    ^ "\n"
  in
  let expected =
    In_channel.with_open_bin
      (Filename.concat "golden" "cluster_stats_schema.txt")
      In_channel.input_all
  in
  if got <> expected then
    Alcotest.failf "cluster stats schema drifted\n--- golden ---\n%s--- got ---\n%s" expected
      got

let () =
  Alcotest.run "proxy"
    [
      ( "ring",
        [
          ring_balance;
          ring_stability;
          ring_successors;
          ring_hash_deterministic;
          Alcotest.test_case "create/remove validation" `Quick test_ring_validation;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "ping answers locally with role" `Quick test_ping_role;
          Alcotest.test_case "all backends dead is 502" `Quick test_all_backends_dead;
          Alcotest.test_case "cluster rpc reports health" `Quick test_cluster_rpc;
          Alcotest.test_case "kill, failover byte-identical, restart, recover" `Quick
            test_failover_byte_identical;
          Alcotest.test_case "aggregated stats over live backends" `Quick
            test_stats_aggregation_live;
          Alcotest.test_case "stats sums backend cache invalidations" `Quick
            test_stats_sum_invalidations;
          Alcotest.test_case "golden cluster stats schema" `Quick test_golden_cluster_stats;
        ] );
    ]
