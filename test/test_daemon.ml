(* The poll-based event engine, attacked over real sockets: incremental
   frame reassembly (slowloris), pipelining with in-order replies,
   buffered partial writes to a stalled reader, the idle-timeout /
   rate-limit / max-connections hardening knobs, EOF-driven compute
   cancellation, and connections whose fd number exceeds FD_SETSIZE —
   the cliff that broke the old select(2)-based client_gone probe.

   [Wire.Decoder] unit tests live here too: the daemon's framing is only
   as good as reassembly across arbitrary chunk boundaries. *)

module T = Report.Tabular
module W = Server.Wire

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let is_ok j = T.member "ok" j = Some (T.Jbool true)

let error_tag j =
  match T.member "error" j with Some (T.Jstr e) -> e | _ -> "(no error field)"

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let with_daemon ?workers ?capacity ?max_conns ?idle_timeout_s ?rate_limit f =
  let d = Server.Daemon.start ?workers ?capacity ?max_conns ?idle_timeout_s ?rate_limit () in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop ~abort_connections:true d;
      Server.Daemon.wait d)
    (fun () -> f d (Server.Daemon.port d))

(* ------------------------------------------------------------------ *)
(* Wire.Decoder: reassembly across arbitrary chunk boundaries          *)

let feed_string dec s ~chunk =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let len = min chunk (n - off) in
      W.Decoder.feed dec (Bytes.sub b off len) ~off:0 ~len;
      go (off + len)
    end
  in
  go 0

let drain dec =
  let rec go acc =
    match W.Decoder.next dec with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

let test_decoder_reassembly () =
  let frames = [ "{\"op\":\"ping\"}"; ""; String.make 300 'x'; "tail" ] in
  let stream = String.concat "" (List.map W.encode frames) in
  (* Every chunk size must produce the same frames in the same order —
     byte-at-a-time is the slowloris case, large chunks the batched one. *)
  List.iter
    (fun chunk ->
      let dec = W.Decoder.create () in
      feed_string dec stream ~chunk;
      Alcotest.(check (list string))
        (Printf.sprintf "chunk=%d" chunk)
        frames (drain dec);
      checki (Printf.sprintf "nothing buffered after chunk=%d" chunk) 0 (W.Decoder.buffered dec))
    [ 1; 2; 3; 7; 64; String.length stream ];
  (* A frame cut mid-payload stays buffered, not delivered. *)
  let dec = W.Decoder.create () in
  let frame = W.encode "{\"op\":\"list\"}" in
  feed_string dec (String.sub frame 0 (String.length frame - 3)) ~chunk:4;
  checkb "partial frame not delivered" true (W.Decoder.next dec = None);
  checkb "partial frame counted as buffered" true (W.Decoder.buffered dec > 0)

let test_decoder_defenses () =
  (* Nine continuation bytes: header budget exhausted. *)
  let dec = W.Decoder.create () in
  checkb "overlong header raises Malformed" true
    (match feed_string dec (String.make 9 '\xff') ~chunk:1 with
    | () -> false
    | exception W.Malformed _ -> true);
  (* A declared size over the cap dies at the header, before any payload
     allocation. *)
  let w = Stdx.Bitbuf.Writer.create () in
  Stdx.Bitbuf.Writer.uvarint w (W.max_frame + 1);
  let header, _ = Stdx.Bitbuf.Writer.contents w in
  let dec = W.Decoder.create () in
  checkb "oversized declaration raises Oversized" true
    (match feed_string dec (Bytes.to_string header) ~chunk:2 with
    | () -> false
    | exception W.Oversized _ -> true)

(* ------------------------------------------------------------------ *)
(* Slowloris and pipelining                                            *)

let test_slowloris () =
  with_daemon ~workers:1 ~capacity:4 (fun _ port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* One byte every 5 ms: the frame trickles in over ~15 poll
             wakeups; the decoder must reassemble it exactly once. *)
          String.iter
            (fun c ->
              send_all fd (String.make 1 c);
              Thread.delay 0.005)
            (W.encode "{\"op\":\"ping\"}");
          checkb "slow frame answered" true (is_ok (T.json_of_string (W.read_frame fd)))))

let test_pipelining_in_order () =
  with_daemon ~workers:1 ~capacity:4 (fun _ port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Ten distinguishable requests in ONE write; the `cache keys`
             echo of [prefix] proves each reply matches its request and
             that order survived. *)
          let req i =
            W.encode
              (Printf.sprintf "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"p%d\"}" i)
          in
          send_all fd (String.concat "" (List.init 10 req));
          List.iteri
            (fun i () ->
              let j = T.json_of_string (W.read_frame fd) in
              checkb (Printf.sprintf "reply %d ok" i) true (is_ok j);
              checkb
                (Printf.sprintf "reply %d matches request %d" i i)
                true
                (T.member "prefix" j = Some (T.Jstr (Printf.sprintf "p%d" i))))
            (List.init 10 (fun _ -> ()))))

let test_stalled_reader_buffered_writes () =
  with_daemon ~workers:1 ~capacity:4 (fun _ port ->
      let run_req =
        T.string_of_json
          (T.Jobj [ ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("smoke", T.Jbool true) ])
      in
      (* Warm the cache so every pipelined request below is a pure hit —
         the test measures the write path, not the scheduler. *)
      let warm = Server.Client.with_connection ~port (fun c -> Server.Client.request c run_req) in
      checkb "warm-up ok" true (is_ok (T.json_of_string warm));
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* 64 requests, zero reads: replies pile into the connection's
             out-queue and the socket buffer; reads from this connection
             suspend while output is pending (back-pressure), so the
             daemon must interleave flushing and reading as this client
             finally drains. Every reply must be byte-identical. *)
          let frame = W.encode run_req in
          send_all fd (String.concat "" (List.init 64 (fun _ -> frame)));
          for i = 1 to 64 do
            checks (Printf.sprintf "stalled reply %d byte-identical" i) warm (W.read_frame fd)
          done))

(* ------------------------------------------------------------------ *)
(* Hardening knobs                                                     *)

let test_idle_timeout_eviction () =
  with_daemon ~workers:1 ~capacity:4 ~idle_timeout_s:0.3 (fun _ port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Say nothing; the sweep must evict with a 408 frame, then FIN. *)
          (match W.read_frame fd with
          | frame -> checks "idle eviction tagged" "idle-timeout" (error_tag (T.json_of_string frame))
          | exception W.Closed -> Alcotest.fail "connection closed without a 408 frame");
          checkb "closed after 408" true
            (match W.read_frame fd with _ -> false | exception W.Closed -> true);
          (* The eviction is visible in stats (fresh connection, queried
             well inside its own 0.3 s budget). *)
          let stats =
            Server.Client.with_connection ~port (fun c -> Server.Client.request c "{\"op\":\"stats\"}")
          in
          match T.member "connections" (T.json_of_string stats) with
          | Some (T.Jobj fields) ->
              checkb "idle_timeouts counted" true
                (match List.assoc_opt "idle_timeouts" fields with
                | Some (T.Jint n) -> n >= 1
                | _ -> false)
          | _ -> Alcotest.fail "stats has no connections block"))

let test_rate_limit_429 () =
  with_daemon ~workers:1 ~capacity:4 ~rate_limit:2. (fun _ port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Burst capacity is one second of budget (2 tokens): of six
             instant pings the first two pass and the rest are answered
             429 in order — the connection survives. *)
          let ping = W.encode "{\"op\":\"ping\"}" in
          send_all fd (String.concat "" (List.init 6 (fun _ -> ping)));
          let replies = List.init 6 (fun _ -> T.json_of_string (W.read_frame fd)) in
          checkb "burst head passes" true (is_ok (List.nth replies 0));
          checkb "second passes" true (is_ok (List.nth replies 1));
          let limited =
            List.length (List.filter (fun j -> error_tag j = "rate-limited") replies)
          in
          checkb "tail rate-limited" true (limited >= 3);
          (* A second of refill restores service on the SAME connection. *)
          Thread.delay 1.1;
          send_all fd ping;
          checkb "recovers after refill" true (is_ok (T.json_of_string (W.read_frame fd)));
          let stats =
            Server.Client.with_connection ~port (fun c -> Server.Client.request c "{\"op\":\"stats\"}")
          in
          match T.member "connections" (T.json_of_string stats) with
          | Some (T.Jobj fields) ->
              checkb "rate_limited counted" true
                (match List.assoc_opt "rate_limited" fields with
                | Some (T.Jint n) -> n >= 3
                | _ -> false)
          | _ -> Alcotest.fail "stats has no connections block"))

let test_max_conns_shedding () =
  with_daemon ~workers:1 ~capacity:4 ~max_conns:2 (fun _ port ->
      let c1 = connect port and c2 = connect port in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ c1; c2 ])
        (fun () ->
          let ping fd =
            send_all fd (W.encode "{\"op\":\"ping\"}");
            is_ok (T.json_of_string (W.read_frame fd))
          in
          checkb "first admitted" true (ping c1);
          checkb "second admitted" true (ping c2);
          (* Over the cap: accept, one 503 conn-limit frame, close. *)
          let c3 = connect port in
          (match W.read_frame c3 with
          | frame -> checks "shed tagged" "conn-limit" (error_tag (T.json_of_string frame))
          | exception W.Closed -> Alcotest.fail "no 503 frame over the cap");
          checkb "shed conn closed" true
            (match W.read_frame c3 with _ -> false | exception W.Closed -> true);
          Unix.close c3;
          (* Freeing a slot re-opens admission (the loop may need a beat
             to observe the FIN). *)
          Unix.close c1;
          let rec admit_ping attempts =
            if attempts = 0 then false
            else begin
              let c4 = connect port in
              send_all c4 (W.encode "{\"op\":\"ping\"}");
              let ok =
                match W.read_frame c4 with
                | frame -> is_ok (T.json_of_string frame)
                | exception W.Closed -> false
              in
              (try Unix.close c4 with Unix.Unix_error _ -> ());
              ok
              ||
              (Thread.delay 0.02;
               admit_ping (attempts - 1))
            end
          in
          checkb "slot freed, admission recovers" true (admit_ping 50)))

(* A [start_handler] handler that raises runs on a dispatch thread,
   outside [dispatch_one]'s synchronous guard: it must still answer a 500
   [failed] frame, and the connection must keep serving afterwards. The
   exception text carries UTF-8 and a control byte: the frame must still
   be valid JSON whose [msg] is that text, for [Failure] (whose
   [Printexc] rendering escapes its argument) and for an exception whose
   registered printer passes its text through raw. *)
exception Raw_text of string

let () = Printexc.register_printer (function Raw_text s -> Some s | _ -> None)

let test_raising_handler_answers_500 () =
  let text = "caf\xc3\xa9\x01" in
  let handle ~cancelled:_ request =
    match request with
    | "boom" -> raise (Failure text)
    | "raw" -> raise (Raw_text text)
    | _ -> { Server.Service.payload = "{\"ok\":true}"; shutdown = false }
  in
  let d = Server.Daemon.start_handler ~handle () in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop ~abort_connections:true d;
      Server.Daemon.wait d)
    (fun () ->
      let fd = connect (Server.Daemon.port d) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* A hung connection fails the read instead of the whole suite. *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          List.iter
            (fun (request, e) ->
              send_all fd (W.encode request);
              let frame = W.read_frame fd in
              let j =
                try T.json_of_string frame
                with T.Parse_error msg ->
                  Alcotest.failf "%s: frame is not JSON (%s): %S" request msg frame
              in
              checks "error tag" "failed" (error_tag j);
              checkb "code 500" true (T.member "code" j = Some (T.Jint 500));
              checkb "msg round-trips" true
                (T.member "msg" j = Some (T.Jstr (Printexc.to_string e))))
            [ ("boom", Failure text); ("raw", Raw_text text) ];
          send_all fd (W.encode "ping");
          checkb "connection still serves" true (is_ok (T.json_of_string (W.read_frame fd)))))

(* ------------------------------------------------------------------ *)
(* FD_SETSIZE and EOF-driven cancellation                              *)

let test_beyond_fd_setsize () =
  (* 600 held connections put both sides' fd numbers past 1024 in this
     process (client + daemon share it). The old select(2)-based
     client_gone probe faulted on such fds and reported every client
     gone — computes came back 499 to a live, waiting client. The event
     loop's EOF flag has no such cliff: the compute must answer ok. *)
  with_daemon ~workers:1 ~capacity:4 (fun d port ->
      let herd = Array.init 600 (fun _ -> connect port) in
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) herd)
        (fun () ->
          (* Let the daemon accept the whole herd first, so its own fds
             (and hence the probe's) are numbered past 1024. *)
          let metrics = Server.Service.metrics (Server.Daemon.service d) in
          let deadline = Unix.gettimeofday () +. 10. in
          while
            (Server.Metrics.snapshot metrics).Server.Metrics.conns_open < 600
            && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.01
          done;
          let high = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.close high with Unix.Unix_error _ -> ())
            (fun () ->
              checkb "high fd number reached" true
                ((Obj.magic high : int) > 1024 (* Unix fds are ints *));
              send_all high
                (W.encode
                   (T.string_of_json
                      (T.Jobj
                         [
                           ("op", T.Jstr "run"); ("id", T.Jstr "claim31"); ("smoke", T.Jbool true);
                         ])));
              let j = T.json_of_string (W.read_frame high) in
              checkb "compute on fd>FD_SETSIZE answers ok (not 499)" true (is_ok j);
              (* The herd is still alive end to end. *)
              send_all herd.(599) (W.encode "{\"op\":\"ping\"}");
              checkb "herd tail still served" true
                (is_ok (T.json_of_string (W.read_frame herd.(599)))))))

let slow_simulate seed =
  Printf.sprintf
    "{\"op\":\"simulate\",\"protocol\":\"two-round-mm\",\"graph\":{\"kind\":\"gnp\",\"n\":2500,\"p\":0.5},\"seed\":%d}"
    seed

let test_eof_cancels_queued_compute () =
  (* One worker, so conn B's compute queues behind conn A's ~0.5 s run.
     B disconnects while queued; the event loop's EOF flag must reach the
     scheduler's cancellation probe and the job must be dropped, visible
     as queue.cancelled_drops in stats. (The old probe did this with a
     per-request MSG_PEEK; now it is one atomic read set at EOF.) *)
  with_daemon ~workers:1 ~capacity:8 (fun _ port ->
      let a = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
        (fun () ->
          send_all a (W.encode (slow_simulate 1));
          Thread.delay 0.1;
          (* A's job is on the worker now; B's will queue. *)
          let b = connect port in
          send_all b (W.encode (slow_simulate 2));
          Thread.delay 0.1;
          Unix.close b;
          (* A's reply arrives after its compute; B's job is then picked
             up, sees the cancellation flag, and is dropped unrun. *)
          checkb "conn A answered ok" true (is_ok (T.json_of_string (W.read_frame a)));
          let cancelled_drops () =
            let stats =
              Server.Client.with_connection ~port (fun c ->
                  Server.Client.request c "{\"op\":\"stats\"}")
            in
            match T.member "queue" (T.json_of_string stats) with
            | Some q -> (
                match T.member "cancelled_drops" q with Some (T.Jint n) -> n | _ -> -1)
            | None -> -1
          in
          let rec poll attempts =
            if cancelled_drops () >= 1 then true
            else if attempts = 0 then false
            else begin
              Thread.delay 0.05;
              poll (attempts - 1)
            end
          in
          checkb "queued compute cancelled at EOF" true (poll 40)))

(* ------------------------------------------------------------------ *)
(* The cache RPC, end to end, pinned                                   *)

let test_cache_rpc_golden () =
  with_daemon ~workers:1 ~capacity:4 (fun d port ->
      let service = Server.Daemon.service d in
      (* Fixed entries straight into the cache: the RPC's responses are
         then a pure function of this state, safe to pin byte-exactly. *)
      let cache = Server.Service.cache service in
      Server.Cache.add cache "exp:alpha:1" "{\"rows\":1}";
      Server.Cache.add cache "exp:alpha:2" "{\"rows\":22}";
      Server.Cache.add cache "exp:beta:1" "{\"rows\":333}";
      let got =
        Server.Client.with_connection ~port (fun c ->
            String.concat "\n"
              (List.map
                 (Server.Client.request c)
                 [
                   "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"exp:alpha:\"}";
                   "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"exp:\",\"limit\":2}";
                   "{\"op\":\"cache\",\"action\":\"invalidate\",\"prefix\":\"exp:alpha:\"}";
                   "{\"op\":\"cache\",\"action\":\"keys\",\"prefix\":\"exp:\"}";
                   "{\"op\":\"cache\",\"action\":\"stats\"}";
                   "{\"op\":\"cache\",\"action\":\"invalidate\"}";
                   "{\"op\":\"cache\",\"action\":\"nope\"}";
                 ])
            ^ "\n")
      in
      let expected =
        In_channel.with_open_bin
          (Filename.concat "golden" "cache_rpc_schema.txt")
          In_channel.input_all
      in
      if got <> expected then
        Alcotest.failf "cache RPC schema drifted\n--- golden ---\n%s--- got ---\n%s" expected got)

let () =
  Alcotest.run "daemon-engine"
    [
      ( "decoder",
        [
          Alcotest.test_case "reassembly across chunk sizes" `Quick test_decoder_reassembly;
          Alcotest.test_case "header defenses" `Quick test_decoder_defenses;
        ] );
      ( "connections",
        [
          Alcotest.test_case "slowloris byte-at-a-time" `Quick test_slowloris;
          Alcotest.test_case "pipelined requests answered in order" `Quick
            test_pipelining_in_order;
          Alcotest.test_case "stalled reader gets buffered writes" `Quick
            test_stalled_reader_buffered_writes;
          Alcotest.test_case "raising handler answers 500" `Quick
            test_raising_handler_answers_500;
        ] );
      ( "limits",
        [
          Alcotest.test_case "idle timeout evicts with 408" `Quick test_idle_timeout_eviction;
          Alcotest.test_case "rate limit answers 429 and recovers" `Slow test_rate_limit_429;
          Alcotest.test_case "max conns sheds with 503" `Quick test_max_conns_shedding;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "fds beyond FD_SETSIZE still serve" `Slow test_beyond_fd_setsize;
          Alcotest.test_case "EOF cancels queued compute" `Slow test_eof_cancels_queued_compute;
        ] );
      ( "cache-rpc",
        [ Alcotest.test_case "golden schema over TCP" `Quick test_cache_rpc_golden ] );
    ]
