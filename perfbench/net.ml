(* The load generator's network side: framed loopback connections, the
   idle herd, a closed loop and an open loop. Everything runs on the
   calling thread over select(2): one generator process, no helper
   threads, and never more connections carrying requests than the caller
   passes in. *)

open Util
module W = Server.Wire

type conn = {
  fd : Unix.file_descr;
  dec : W.Decoder.t;
  inflight : (int * float) Queue.t;  (** request tag, time it counts from *)
}

let buf = Bytes.create 65536

let socket_to port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let connect port =
  let fd = socket_to port in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; dec = W.Decoder.create (); inflight = Queue.create () }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c payload =
  let s = W.encode payload in
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring c.fd s off (len - off)) in
  go 0

(* Read what has arrived; hand every completed frame to [f] with the
   receive time. *)
let drain c f =
  let k = Unix.read c.fd buf 0 (Bytes.length buf) in
  let t = now () in
  if k = 0 then failwith "connection closed by the server";
  W.Decoder.feed c.dec buf ~off:0 ~len:k;
  let rec pop () =
    match W.Decoder.next c.dec with
    | Some p ->
        f p t;
        pop ()
    | None -> ()
  in
  pop ()

(* One synchronous request on an otherwise idle connection. *)
let rpc c payload =
  send c payload;
  let reply = ref None in
  while !reply = None do
    match Unix.select [ c.fd ] [] [] 30. with
    | [], _, _ -> failwith "rpc: no reply within 30 s"
    | _ -> drain c (fun p _ -> reply := Some p)
  done;
  Option.get !reply

let rpc_port port payload =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> rpc c payload)

let ready conns =
  Array.fold_left (fun acc c -> if Queue.is_empty c.inflight then acc else c.fd :: acc) [] conns

let find conns fd =
  let rec go i = if conns.(i).fd = fd then conns.(i) else go (i + 1) in
  go 0

(* Closed loop: every connection keeps exactly one request outstanding
   and sends its next one when the reply arrives, so a slower server gets
   less load. [next ()] yields the next [(tag, payload)], or [None] to
   stop; [on_reply tag payload latency_s] sees every reply. *)
let closed_loop conns ~next ~on_reply =
  let outstanding = ref 0 in
  let start c =
    match next () with
    | Some (tag, p) ->
        Queue.push (tag, now ()) c.inflight;
        send c p;
        incr outstanding
    | None -> ()
  in
  Array.iter start conns;
  while !outstanding > 0 do
    match Unix.select (ready conns) [] [] 30. with
    | [], _, _ -> failwith "closed loop: no reply within 30 s"
    | r, _, _ ->
        List.iter
          (fun fd ->
            let c = find conns fd in
            drain c (fun p t ->
                let tag, t0 = Queue.pop c.inflight in
                decr outstanding;
                on_reply tag p (t -. t0);
                start c))
          r
  done

type open_result = {
  lag : float array;  (** seconds each send happened after its due time *)
  unanswered : int;  (** requests still without a reply at the drain limit *)
  elapsed : float;  (** seconds from the first due time to the last reply *)
}

(* Open loop: request [i] is due at [t0 + i / rate] and goes out on
   connection [i mod k] when due, whatever is still outstanding
   (pipelined; the server answers in order per connection). Latency runs
   from the due time, so a stall also counts against every request queued
   behind it. [on_reply i payload latency_s]. Replies still missing
   [drain_s] after the last due time are given up on and counted in
   [unanswered]; the connections are then unusable and the caller closes
   them. *)
let open_loop conns ~rate ~count ~payload ~on_reply ~drain_s =
  let k = Array.length conns in
  let t0 = now () +. 0.005 in
  let due i = t0 +. (float_of_int i /. rate) in
  let lag = Samples.create () in
  let sent = ref 0 and answered = ref 0 and last = ref t0 in
  let give_up = due count +. drain_s in
  while !answered < count && now () < give_up do
    let t = now () in
    while !sent < count && due !sent <= t do
      let i = !sent in
      let c = conns.(i mod k) in
      Samples.add lag (now () -. due i);
      Queue.push (i, due i) c.inflight;
      send c (payload i);
      incr sent
    done;
    let timeout =
      Float.max 0. (if !sent < count then due !sent -. now () else give_up -. now ())
    in
    match ready conns with
    | [] -> if timeout > 0. then Unix.sleepf timeout
    | fds -> (
        match Unix.select fds [] [] timeout with
        | [], _, _ -> ()
        | r, _, _ ->
            List.iter
              (fun fd ->
                let c = find conns fd in
                drain c (fun p t ->
                    let i, d = Queue.pop c.inflight in
                    incr answered;
                    last := t;
                    on_reply i p (t -. d)))
              r)
  done;
  { lag = Samples.to_array lag; unanswered = count - !answered; elapsed = !last -. t0 }

(* Idle herd: [n] connections opened and never written to. They carry no
   requests, only the daemon's per-wake cost of open connections. *)
let herd port n = Array.init n (fun _ -> socket_to port)
let close_herd h = Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) h

(* ---- JSON replies ------------------------------------------------------- *)

let json s = T.json_of_string s

let rec path j = function
  | [] -> Some j
  | k :: rest -> ( match T.member k j with Some v -> path v rest | None -> None)

let int_at j p = match path j p with Some (T.Jint n) -> n | _ -> -1

let float_at j p =
  match path j p with Some (T.Jfloat f) -> f | Some (T.Jint n) -> float_of_int n | _ -> nan

let is_ok s =
  match T.member "ok" (json s) with Some (T.Jbool true) -> true | _ -> false | exception _ -> false
let obj fields = T.string_of_json (T.Jobj fields)
let stats_payload = obj [ ("op", T.Jstr "stats") ]
let ping_payload = obj [ ("op", T.Jstr "ping") ]
let shutdown_payload = obj [ ("op", T.Jstr "shutdown") ]

(* Ask each daemon to drain (which also writes its --trace file), then
   wait until every one has exited. *)
let shutdown procs =
  List.iter
    (fun (p : Proc.t) -> try ignore (rpc_port p.Proc.port shutdown_payload) with _ -> ())
    procs;
  Proc.wait_all procs
