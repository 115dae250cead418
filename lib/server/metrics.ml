(* Daemon observability: request counters per operation, error counts, and
   a fixed-size ring of recent request latencies from which the `stats` RPC
   computes percentiles. All updates take one mutex — contention is
   irrelevant next to the experiment runs being measured. *)

type t = {
  mutex : Mutex.t;
  by_op : (string, int) Hashtbl.t;
  mutable total : int;
  mutable errors : int;
  latency_ring : float array;  (* milliseconds, newest overwrites oldest *)
  mutable ring_used : int;
  mutable ring_next : int;
  started_at : float;
  (* Connection book-keeping, fed by the daemon's event loop. *)
  mutable conns_open : int;  (* gauge: currently accepted *)
  mutable conns_accepted : int;
  mutable conns_rejected : int;  (* over the max-connections cap *)
  mutable idle_timeouts : int;
  mutable rate_limited : int;
}

let ring_size = 1024

let create () =
  {
    mutex = Mutex.create ();
    by_op = Hashtbl.create 8;
    total = 0;
    errors = 0;
    latency_ring = Array.make ring_size 0.;
    ring_used = 0;
    ring_next = 0;
    started_at = Unix.gettimeofday ();
    conns_open = 0;
    conns_accepted = 0;
    conns_rejected = 0;
    idle_timeouts = 0;
    rate_limited = 0;
  }

let locked t f = Mutex.protect t.mutex f

let record t ~op ~ok ~ms =
  locked t (fun () ->
      t.total <- t.total + 1;
      if not ok then t.errors <- t.errors + 1;
      Hashtbl.replace t.by_op op (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_op op));
      t.latency_ring.(t.ring_next) <- ms;
      t.ring_next <- (t.ring_next + 1) mod ring_size;
      t.ring_used <- min ring_size (t.ring_used + 1))

let conn_opened t =
  locked t (fun () ->
      t.conns_open <- t.conns_open + 1;
      t.conns_accepted <- t.conns_accepted + 1)

let conn_closed t = locked t (fun () -> t.conns_open <- max 0 (t.conns_open - 1))
let conn_rejected t = locked t (fun () -> t.conns_rejected <- t.conns_rejected + 1)
let idle_timeout t = locked t (fun () -> t.idle_timeouts <- t.idle_timeouts + 1)
let rate_limited t = locked t (fun () -> t.rate_limited <- t.rate_limited + 1)

type snapshot = {
  uptime_s : float;
  total : int;
  errors : int;
  by_op : (string * int) list;  (* sorted by op name *)
  latency_count : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  conns_open : int;
  conns_accepted : int;
  conns_rejected : int;
  idle_timeouts : int;
  rate_limited : int;
}

let snapshot t =
  locked t (fun () ->
      let lat = Array.sub t.latency_ring 0 t.ring_used in
      let q p = if t.ring_used = 0 then 0. else Stdx.Stats.quantile lat p in
      {
        uptime_s = Unix.gettimeofday () -. t.started_at;
        total = t.total;
        errors = t.errors;
        by_op =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_op []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
        latency_count = t.ring_used;
        p50_ms = q 0.5;
        p90_ms = q 0.9;
        p99_ms = q 0.99;
        max_ms = (if t.ring_used = 0 then 0. else Array.fold_left max 0. lat);
        conns_open = t.conns_open;
        conns_accepted = t.conns_accepted;
        conns_rejected = t.conns_rejected;
        idle_timeouts = t.idle_timeouts;
        rate_limited = t.rate_limited;
      })
