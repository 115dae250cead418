(** Request scheduler: bounded admission in front of a persistent pool of
    worker domains ({!Stdx.Parallel.Pool}).

    [depth] counts queued-plus-running requests against [capacity]; a
    request arriving with every slot taken is shed immediately
    ({!error.Overloaded} — the wire protocol's 429) instead of growing an
    unbounded backlog. Two best-effort drop points run on the worker just
    before the real work: a deadline check and a caller-supplied
    cancellation probe (the daemon passes "has the client disconnected?").
    Neither preempts running work. *)

type t
(** A scheduler: admission counter + worker pool. Safe to share. *)

type error =
  | Overloaded  (** queue full at submission — load shed *)
  | Deadline_exceeded  (** waited past its deadline; work skipped *)
  | Cancelled  (** cancellation probe fired before the work started *)
  | Shutting_down  (** submitted during {!shutdown} *)
  | Failed of string  (** the work itself raised *)

val create : ?workers:int -> ?capacity:int -> unit -> t
(** Defaults: 2 worker domains, capacity 16. *)

val workers : t -> int
(** Number of worker domains in the pool. *)

val submit :
  t ->
  ?deadline:float ->
  ?cancelled:(unit -> bool) ->
  (unit -> 'a) ->
  k:(('a, error) result -> unit) ->
  unit
(** Submit [f] without blocking; [k] receives the outcome exactly once.
    Admission happens here: a shed/draining request's [k] runs
    {e synchronously} on the caller (the event thread gets its 429
    without a thread handoff); an admitted job's [k] runs on the worker
    domain, after the compute (or the deadline/cancellation drop). [k]
    must not block for long and must not raise. [deadline] is an
    absolute [Unix.gettimeofday] instant checked when the job reaches a
    worker; [cancelled] is probed at the same point. *)

val run : t -> ?deadline:float -> ?cancelled:(unit -> bool) -> (unit -> 'a) -> ('a, error) result
(** {!submit} plus a blocking wait for the outcome ({!await}) — the
    synchronous convenience used by tests and anything with a thread to
    park. Safe to call from many threads concurrently. *)

val await : (('a -> unit) -> unit) -> 'a
(** [await start] calls [start k] and parks the calling thread until [k]
    has been called (from any thread or domain, or synchronously inside
    [start]); returns [k]'s argument. The blocking bridge over every
    continuation-style call in the serving stack: {!run},
    [Service.handle], [Proxy.handle]. *)

type stats = {
  depth : int;  (** queued + running right now *)
  capacity : int;
  workers : int;
  shed : int;  (** requests rejected with [Overloaded] *)
  deadline_drops : int;
  cancelled_drops : int;
}
(** Live depth plus lifetime drop counters — the `stats` RPC's
    [scheduler] field. *)

val stats : t -> stats
(** A consistent snapshot of {!stats}. *)

val shutdown : t -> unit
(** Refuse new work and block until everything already admitted finishes.
    Idempotent. *)
