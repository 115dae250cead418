(* Request scheduler: admission control in front of a persistent
   [Stdx.Parallel.Pool] of worker domains.

   The pool's queue is unbounded; this layer bounds it. [run] counts a
   request against [capacity] at submission and releases the slot when the
   job finishes (or is dropped), so [depth] is "queued + running". A
   request arriving with all slots taken is shed immediately — the 429 of
   the wire protocol — instead of growing an unbounded backlog under
   overload.

   Two best-effort drop points run on the worker, just before the real
   work: a deadline check (a request that waited past its budget is not
   worth computing — the client has likely timed out) and a caller-supplied
   cancellation probe (the daemon passes "has the client socket gone?", so
   a disconnected client's heavy run is skipped rather than computed into
   the void). Neither preempts running work: OCaml compute can't be safely
   interrupted mid-table, and a completed run is still useful — it is
   cached. *)

type t = {
  pool : Stdx.Parallel.Pool.t;
  mutex : Mutex.t;
  mutable depth : int;  (* queued + running *)
  capacity : int;
  mutable shed : int;
  mutable deadline_drops : int;
  mutable cancelled_drops : int;
  mutable closing : bool;
}

type error = Overloaded | Deadline_exceeded | Cancelled | Shutting_down | Failed of string

let create ?(workers = 2) ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Scheduler.create: capacity";
  {
    pool = Stdx.Parallel.Pool.create ~workers ();
    mutex = Mutex.create ();
    depth = 0;
    capacity;
    shed = 0;
    deadline_drops = 0;
    cancelled_drops = 0;
    closing = false;
  }

let workers t = Stdx.Parallel.Pool.workers t.pool

let locked t f = Mutex.protect t.mutex f

(* The one blocking result cell of the serving stack: run a
   continuation-style call and park the calling thread until its [k] has
   fired. [run] below and [Service.handle] are this over their async
   twins. *)
let await start =
  let m = Mutex.create () in
  let c = Condition.create () in
  let result = ref None in
  start (fun v ->
      Mutex.lock m;
      result := Some v;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  let rec wait () =
    match !result with
    | Some v -> v
    | None ->
        Condition.wait c m;
        wait ()
  in
  let v = wait () in
  Mutex.unlock m;
  v

(* Asynchronous submission: admission happens here (a shed request's [k]
   runs synchronously on the caller — the event thread gets its 429
   without a thread handoff); an admitted job's [k] runs on the worker
   domain that executed (or dropped) it. The event engine's completion
   path is [k]'s responsibility — it posts back to the event loop. *)
let submit t ?deadline ?(cancelled = fun () -> false) f ~k =
  let admitted =
    locked t (fun () ->
        if t.closing then Error Shutting_down
        else if t.depth >= t.capacity then begin
          t.shed <- t.shed + 1;
          Error Overloaded
        end
        else begin
          t.depth <- t.depth + 1;
          Ok ()
        end)
  in
  match admitted with
  | Error Overloaded ->
      Stdx.Trace.instant "scheduler.shed";
      k (Error Overloaded)
  | Error _ as e -> k e
  | Ok () ->
      (* Guarded: the depth read takes the mutex, don't pay it when off. *)
      if Stdx.Trace.enabled () then
        Stdx.Trace.counter "scheduler.depth" (locked t (fun () -> t.depth));
      let job () =
        let outcome =
          if (match deadline with Some d -> Unix.gettimeofday () > d | None -> false) then begin
            locked t (fun () -> t.deadline_drops <- t.deadline_drops + 1);
            Stdx.Trace.instant "scheduler.deadline-drop";
            Error Deadline_exceeded
          end
          else if cancelled () then begin
            locked t (fun () -> t.cancelled_drops <- t.cancelled_drops + 1);
            Stdx.Trace.instant "scheduler.cancelled-drop";
            Error Cancelled
          end
          else
            match Stdx.Trace.span "scheduler.compute" f with
            | v -> Ok v
            | exception e -> Error (Failed (Printexc.to_string e))
        in
        locked t (fun () -> t.depth <- t.depth - 1);
        k outcome
      in
      if not (Stdx.Parallel.Pool.submit t.pool job) then begin
        locked t (fun () -> t.depth <- t.depth - 1);
        k (Error Shutting_down)
      end

let run t ?deadline ?cancelled f = await (fun k -> submit t ?deadline ?cancelled f ~k)

type stats = {
  depth : int;
  capacity : int;
  workers : int;
  shed : int;
  deadline_drops : int;
  cancelled_drops : int;
}

let stats t =
  locked t (fun () ->
      {
        depth = t.depth;
        capacity = t.capacity;
        workers = workers t;
        shed = t.shed;
        deadline_drops = t.deadline_drops;
        cancelled_drops = t.cancelled_drops;
      })

(* Graceful drain: refuse new work, then block until the pool has finished
   everything already admitted. *)
let shutdown t =
  locked t (fun () -> t.closing <- true);
  Stdx.Parallel.Pool.shutdown t.pool
