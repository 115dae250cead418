(* Backend health book-keeping for the proxy: one entry per configured
   backend, flipped up/down by the periodic ping sweep and by forwarding
   outcomes (a transport failure marks the backend down immediately; a
   successful response marks it up). One mutex — updates are a few words,
   contention is irrelevant next to the forwarded requests. *)

type status = {
  healthy : bool;
  failures : int;  (* consecutive failures since the last success *)
  last_error : string option;  (* what the most recent failure said *)
}

type entry = { addr : string; mutable status : status }
type t = { mutex : Mutex.t; entries : entry list (* configured order *) }

let create backends =
  {
    mutex = Mutex.create ();
    entries =
      (* Optimistic start: a backend is presumed healthy until a ping or a
         forward says otherwise, so the proxy serves before the first
         sweep completes. *)
      List.map
        (fun addr -> { addr; status = { healthy = true; failures = 0; last_error = None } })
        backends;
  }

let locked t f = Mutex.protect t.mutex f

let find t addr = List.find_opt (fun e -> e.addr = addr) t.entries

let mark_up t addr =
  locked t (fun () ->
      match find t addr with
      | Some e ->
          if not e.status.healthy then Stdx.Trace.instant "health.recovered";
          e.status <- { healthy = true; failures = 0; last_error = None }
      | None -> ())

let mark_down t addr ~error =
  locked t (fun () ->
      match find t addr with
      | Some e ->
          if e.status.healthy then Stdx.Trace.instant "health.down";
          e.status <-
            { healthy = false; failures = e.status.failures + 1; last_error = Some error }
      | None -> ())

let healthy t addr =
  locked t (fun () -> match find t addr with Some e -> e.status.healthy | None -> false)

let snapshot t = locked t (fun () -> List.map (fun e -> (e.addr, e.status)) t.entries)

let record t addr = function Ok _ -> mark_up t addr | Error msg -> mark_down t addr ~error:msg

(* One synchronous sweep: probe every backend, update its entry. *)
let sweep t ~ping = List.iter (fun (addr, _) -> record t addr (ping addr)) (snapshot t)

(* ------------------------------------------------------------------ *)
(* Periodic pinger: a background thread sweeping every [interval_s],
   woken early through a self-pipe when stopped.                       *)

type pinger = {
  thread : Thread.t;
  stop_w : Unix.file_descr;
  mutable stopped : bool;
}

let start_pinger t ~interval_s ~ping =
  let stop_r, stop_w = Unix.pipe () in
  let rec loop () =
    (* Sleep with a wake-up: select returns early when [stop] writes. *)
    match Unix.select [ stop_r ] [] [] interval_s with
    | [], _, _ ->
        sweep t ~ping;
        loop ()
    | _ -> ()  (* stop requested *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  let thread =
    Thread.create
      (fun () ->
        loop ();
        try Unix.close stop_r with Unix.Unix_error _ -> ())
      ()
  in
  { thread; stop_w; stopped = false }

let stop_pinger p =
  if not p.stopped then begin
    p.stopped <- true;
    (try ignore (Unix.write p.stop_w (Bytes.of_string "!") 0 1) with Unix.Unix_error _ -> ());
    Thread.join p.thread;
    try Unix.close p.stop_w with Unix.Unix_error _ -> ()
  end
